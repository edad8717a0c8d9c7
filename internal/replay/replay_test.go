package replay

import (
	"bytes"
	"testing"

	"machvm/internal/trace"
	"machvm/internal/workload"
)

// recordWorld boots a world, runs fn under tracing, and returns the trace.
func recordWorld(t *testing.T, arch workload.Arch, cfg workload.Config, fn func(w *workload.MachWorld)) *trace.Trace {
	t.Helper()
	w, err := workload.BuildMachWorld(arch, cfg)
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	w.StartTrace()
	fn(w)
	return w.StopTrace()
}

// replayAndCheck replays tr and fails the test on any divergence. It also
// round-trips the trace through the text encoding first, so the golden
// check covers Encode/Decode fidelity too.
func replayAndCheck(t *testing.T, tr *trace.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := trace.Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d := trace.Diff(tr.Events, dec.Events); d != "" {
		t.Fatalf("encode/decode round trip not identical: %s", d)
	}
	res, err := Run(dec)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !res.OK() {
		t.Fatalf("replay diverged:\n%s", res.Divergence())
	}
}

func TestGoldenReplayTable71(t *testing.T) {
	tr := recordWorld(t, workload.ArchUVAX2, workload.NewConfig(workload.WithMemoryMB(8), workload.WithCPUs(2), workload.WithDiskMB(16)), func(w *workload.MachWorld) {
		if _, err := workload.MachZeroFill(w, 256<<10, 2); err != nil {
			t.Fatalf("zerofill: %v", err)
		}
		if _, err := workload.MachFork(w, 128<<10, 2); err != nil {
			t.Fatalf("fork: %v", err)
		}
		if _, err := workload.MachFileRead(w, 192<<10); err != nil {
			t.Fatalf("fileread: %v", err)
		}
	})
	if len(tr.Events) == 0 {
		t.Fatal("recorded no events")
	}
	replayAndCheck(t, tr)
}

func TestGoldenReplayCompileWorld(t *testing.T) {
	tr := recordWorld(t, workload.ArchSun3, workload.NewConfig(workload.WithMemoryMB(8), workload.WithCPUs(1), workload.WithDiskMB(32)), func(w *workload.MachWorld) {
		if _, err := workload.MachCompile(w, workload.ForkTestProgram()); err != nil {
			t.Fatalf("compile: %v", err)
		}
	})
	if len(tr.Events) == 0 {
		t.Fatal("recorded no events")
	}
	replayAndCheck(t, tr)
}

// TestReplayMemoryPressure records a run small enough to force pageouts, so
// the replay check covers reclaim ordering and pager write-back timing.
func TestReplayMemoryPressure(t *testing.T) {
	tr := recordWorld(t, workload.ArchUVAX2, workload.NewConfig(workload.WithMemoryMB(2), workload.WithCPUs(1), workload.WithDiskMB(16)), func(w *workload.MachWorld) {
		if _, err := workload.MachZeroFill(w, 4<<20, 2); err != nil {
			t.Fatalf("zerofill: %v", err)
		}
		w.Kernel.PageoutScan()
	})
	sawReclaim := false
	for _, e := range tr.Events {
		if e.Kind == trace.EvReclaim {
			sawReclaim = true
			break
		}
	}
	if !sawReclaim {
		t.Fatal("pressure run recorded no reclaim events; shrink MemoryMB")
	}
	replayAndCheck(t, tr)
}

// TestRecordTwiceIdentical is the cheapest determinism check: two fresh
// worlds running the same workload must produce bit-identical traces.
func TestRecordTwiceIdentical(t *testing.T) {
	run := func() *trace.Trace {
		return recordWorld(t, workload.ArchUVAX2, workload.NewConfig(workload.WithMemoryMB(4), workload.WithCPUs(2), workload.WithDiskMB(16)), func(w *workload.MachWorld) {
			if _, err := workload.MachZeroFill(w, 512<<10, 2); err != nil {
				t.Fatalf("zerofill: %v", err)
			}
			if _, err := workload.MachFileRead(w, 128<<10); err != nil {
				t.Fatalf("fileread: %v", err)
			}
		})
	}
	a, b := run(), run()
	if d := trace.Diff(a.Events, b.Events); d != "" {
		t.Fatalf("two recordings diverged: %s", d)
	}
	if a.Clock != b.Clock || a.Stats != b.Stats {
		t.Fatalf("end state diverged: clock %d vs %d\n  %s\n  %s", a.Clock, b.Clock, a.Stats, b.Stats)
	}
}
