package core_test

// The steady-state fault of a machine with no hardware page tables, in the
// shape of bench's anon_fault: twice as many live pages as the TLB-only
// module's refill cache holds, touched at random, so nearly every touch
// misses the TLB and the cache, faults on a resident page, and evicts
// another mapping on pmap_enter. The VAX benchmarks beside this one never
// fill a refill cache, which is how an allocation on this path once went
// unnoticed under the "zero-alloc" gate.

import (
	"testing"

	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/tlbonly"
	"machvm/internal/vmtypes"
)

// tlbOnlyFullCache returns a function making one random read touch over
// 2 048 resident pages of a TLB-only machine whose refill cache is full.
func tlbOnlyFullCache(tb testing.TB) (touch func()) {
	machine := hw.NewMachine(hw.Config{
		Cost:       tlbonly.DefaultCost(),
		HWPageSize: tlbonly.HWPageSize,
		PhysFrames: 8192,
		CPUs:       1,
		TLBSize:    64,
	})
	mod := tlbonly.New(machine, pmap.ShootImmediate)
	k := core.MustNewKernel(core.Config{Machine: machine, Module: mod, PageSize: 4096})
	cpu := machine.CPU(0)
	m := k.NewMap()
	m.Pmap().Activate(cpu)
	tb.Cleanup(func() {
		m.Pmap().Deactivate(cpu)
		m.Destroy()
	})

	const pages = 2048
	pageSize := k.PageSize()
	addr, err := m.Allocate(0, pages*pageSize, true)
	if err != nil {
		tb.Fatal(err)
	}
	var buf [8]byte
	for i := uint64(0); i < pages; i++ {
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(i*pageSize), buf[:], true); err != nil {
			tb.Fatal(err)
		}
	}
	if got := m.Pmap().ResidentCount(); got != 1024 {
		tb.Fatalf("refill cache holds %d entries; want it full at 1024", got)
	}
	rng := uint64(1)
	return func() {
		rng = rng*6364136223846793005 + 1442695040888963407
		va := addr + vmtypes.VA(rng>>33%pages*pageSize)
		if err := k.AccessBytes(cpu, m, va, buf[:], false); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestTLBOnlySteadyStateFaultZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("host alloc counts are not stable under the race detector")
	}
	touch := tlbOnlyFullCache(t)
	// AllocsPerRun truncates its average to a whole number, so a run is a
	// batch of touches: one allocation per touch reads as 1 024 per run.
	const batch = 1024
	perRun := testing.AllocsPerRun(20, func() {
		for i := 0; i < batch; i++ {
			touch()
		}
	})
	if perRun != 0 {
		t.Fatalf("steady-state TLB-only fault allocates %.3f times per touch; want 0", perRun/batch)
	}
}

func BenchmarkTLBOnlyFaultFullCache(b *testing.B) {
	touch := tlbOnlyFullCache(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		touch()
	}
}
