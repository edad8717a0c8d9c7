package core_test

// The steady-state copy-on-write fault of a VAX, in the shape of bench's
// fork_cow: a forked child has read every page of a region it shares
// copy-on-write with its parent, so each page is mapped read-only through
// eight 512-byte PTEs, and then writes them one by one. Every write finds
// the page in the backing object, copies it into the child's shadow and
// replaces the eight PTEs — shootdowns, pv removals and all. The resident-hit
// and zero-fill benchmarks beside this one never replace a mapping, which is
// how four allocations per COW fault once sat in the range enter unnoticed.

import (
	"testing"

	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/vax"
	"machvm/internal/vmtypes"
)

// cowWorld is a 1-CPU VAX with a parent holding cowPages dirty pages.
type cowWorld struct {
	tb     testing.TB
	k      *core.Kernel
	cpu    *hw.CPU
	parent *core.Map
	child  *core.Map
	addr   vmtypes.VA
	next   uint64 // next page the child writes
	buf    [8]byte
}

const cowPages = 1024

func newCOWWorld(tb testing.TB) *cowWorld {
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 3 * cowPages * 8,
		CPUs:       1,
		TLBSize:    64,
	})
	k := core.MustNewKernel(core.Config{Machine: machine, Module: vax.New(machine, pmap.ShootImmediate), PageSize: 4096})
	w := &cowWorld{tb: tb, k: k, cpu: machine.CPU(0), parent: k.NewMap()}
	tb.Cleanup(func() {
		w.dropChild()
		w.parent.Destroy()
	})
	var err error
	if w.addr, err = w.parent.Allocate(0, cowPages*k.PageSize(), true); err != nil {
		tb.Fatal(err)
	}
	w.parent.Pmap().Activate(w.cpu)
	for i := uint64(0); i < cowPages; i++ {
		w.touch(w.parent, i, true)
	}
	w.parent.Pmap().Deactivate(w.cpu)
	// One full cycle first, so the page hash, the pv lists and the pools
	// have reached the size the measured cycles need.
	w.reset()
	for w.next < cowPages {
		w.write()
	}
	w.reset()
	return w
}

func (w *cowWorld) touch(m *core.Map, page uint64, write bool) {
	if err := w.k.AccessBytes(w.cpu, m, w.addr+vmtypes.VA(page*w.k.PageSize()), w.buf[:], write); err != nil {
		w.tb.Fatal(err)
	}
}

func (w *cowWorld) dropChild() {
	if w.child != nil {
		w.child.Pmap().Deactivate(w.cpu)
		w.child.Destroy()
		w.child = nil
	}
}

// reset replaces the child with a fresh fork that has read every page and
// written the first, which gives its entry the shadow object the remaining
// writes copy into.
func (w *cowWorld) reset() {
	w.dropChild()
	w.child = w.parent.Fork()
	w.child.Pmap().Activate(w.cpu)
	for i := uint64(0); i < cowPages; i++ {
		w.touch(w.child, i, false)
	}
	w.touch(w.child, 0, true)
	w.next = 1
}

// write takes one copy-on-write fault.
func (w *cowWorld) write() {
	w.touch(w.child, w.next, true)
	w.next++
}

func TestVAXSteadyStateCOWFaultZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("host alloc counts are not stable under the race detector")
	}
	w := newCOWWorld(t)
	before := w.k.Stats().CowFaults.Load()
	// AllocsPerRun truncates its average to a whole number, so a run is a
	// batch of faults: one allocation per fault reads as 32 per run.
	const batch, runs = 32, 20
	perRun := testing.AllocsPerRun(runs, func() {
		for i := 0; i < batch; i++ {
			w.write()
		}
	})
	if got := w.k.Stats().CowFaults.Load() - before; got != batch*(runs+1) {
		t.Fatalf("%d copy-on-write faults in %d writes: the world is not exercising the COW path", got, batch*(runs+1))
	}
	if perRun != 0 {
		t.Fatalf("steady-state VAX COW fault allocates %.3f times per fault; want 0", perRun/batch)
	}
}

func BenchmarkFaultCOWVAX(b *testing.B) {
	w := newCOWWorld(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if w.next == cowPages {
			b.StopTimer()
			w.reset()
			b.StartTimer()
		}
		w.write()
	}
}
