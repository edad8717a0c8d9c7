package workload_test

import (
	"bytes"
	"testing"

	"machvm/internal/workload"
)

// machWorld and unixWorld boot one side of the comparison, failing the
// test on a construction error.
func machWorld(tb testing.TB, a workload.Arch, opts ...workload.Option) *workload.MachWorld {
	tb.Helper()
	w, err := workload.BuildMachWorld(a, workload.NewConfig(opts...))
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

func unixWorld(tb testing.TB, a workload.Arch, opts ...workload.Option) *workload.UnixWorld {
	tb.Helper()
	u, err := workload.BuildUnixWorld(a, workload.NewConfig(opts...))
	if err != nil {
		tb.Fatal(err)
	}
	return u
}

func TestSpecForAllArchitectures(t *testing.T) {
	archs := []workload.Arch{
		workload.ArchUVAX2, workload.ArchVAX8200, workload.ArchVAX8650,
		workload.ArchRTPC, workload.ArchSun3, workload.ArchNS32082, workload.ArchTLBOnly,
	}
	seen := map[string]bool{}
	for _, a := range archs {
		spec := workload.SpecFor(a)
		if spec.HWPageSize == 0 || spec.MachPageSize == 0 || spec.NewModule == nil {
			t.Fatalf("%v: incomplete spec", a)
		}
		if spec.MachPageSize%spec.HWPageSize != 0 {
			t.Fatalf("%v: Mach page %d not a multiple of hw page %d", a, spec.MachPageSize, spec.HWPageSize)
		}
		if a.String() == "" || seen[a.String()] {
			t.Fatalf("%v: bad or duplicate name", a)
		}
		seen[a.String()] = true
	}
}

func TestMachWorldBootsEveryArch(t *testing.T) {
	for _, a := range []workload.Arch{
		workload.ArchUVAX2, workload.ArchRTPC, workload.ArchSun3,
		workload.ArchNS32082, workload.ArchTLBOnly,
	} {
		w := machWorld(t, a, workload.WithMemoryMB(4))
		if w.Kernel.TotalPages() == 0 {
			t.Fatalf("%v: no usable pages", a)
		}
		u := unixWorld(t, a, workload.WithMemoryMB(4))
		if u.Sys.FreePages() == 0 {
			t.Fatalf("%v: baseline has no memory", a)
		}
	}
}

func TestNS32082WorldHonoursPhysicalLimit(t *testing.T) {
	// Boot with 64MB; the chip can address only 32MB, so the kernel must
	// see at most 32MB of usable pages.
	w := machWorld(t, workload.ArchNS32082, workload.WithMemoryMB(64))
	usable := uint64(w.Kernel.TotalPages()) * w.Kernel.PageSize()
	if usable > 32<<20 {
		t.Fatalf("kernel uses %dMB; the NS32082 caps at 32MB", usable>>20)
	}
}

func TestSun3WorldHasDisplayHole(t *testing.T) {
	w := machWorld(t, workload.ArchSun3, workload.WithMemoryMB(8))
	if len(w.Machine.Mem.Holes()) == 0 {
		t.Fatal("SUN 3 world should declare a display-memory hole")
	}
	total := w.Machine.Mem.NumFrames()
	if w.Machine.Mem.PopulatedFrames() >= total {
		t.Fatal("hole not excluded from populated frames")
	}
}

func TestFileObjectCachingAcrossOpens(t *testing.T) {
	w := machWorld(t, workload.ArchVAX8650, workload.WithMemoryMB(8))
	if _, err := w.FS.Create("f", bytes.Repeat([]byte{1}, 64<<10)); err != nil {
		t.Fatal(err)
	}
	cpu := w.Machine.CPU(0)
	m := w.Kernel.NewMap()
	defer m.Destroy()
	m.Pmap().Activate(cpu)
	buf := make([]byte, 64<<10)
	if _, err := w.ReadFileMach(cpu, m, "f", buf); err != nil {
		t.Fatal(err)
	}
	reads1, _ := w.Inode.Traffic()
	if _, err := w.ReadFileMach(cpu, m, "f", buf); err != nil {
		t.Fatal(err)
	}
	reads2, _ := w.Inode.Traffic()
	if reads2 != reads1 {
		t.Fatalf("second open re-read the disk: %d -> %d", reads1, reads2)
	}
	if _, err := w.ReadFileMach(cpu, m, "missing", buf); err == nil {
		t.Fatal("reading a missing file should fail")
	}
}

func TestZeroFillRejectsBadWorld(t *testing.T) {
	// Sanity on the micro-op drivers: they run and produce positive
	// virtual times.
	w := machWorld(t, workload.ArchTLBOnly, workload.WithMemoryMB(4))
	v, err := workload.MachZeroFill(w, 1024, 3)
	if err != nil || v <= 0 {
		t.Fatalf("MachZeroFill = %d, %v", v, err)
	}
	u := unixWorld(t, workload.ArchTLBOnly, workload.WithMemoryMB(4))
	v, err = workload.UnixZeroFill(u, 1024, 3)
	if err != nil || v <= 0 {
		t.Fatalf("UnixZeroFill = %d, %v", v, err)
	}
}
