package core_test

// The host-allocation budget of a pager conversation that answers
// "unavailable" — the crossing a long-lived forking server makes about a
// hundred times per request (bench finding (f)): every shadow level that
// ever paged anything out is asked for every page looked up through it.

import (
	"testing"

	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/vax"
	"machvm/internal/vmtypes"
)

func TestUnavailablePageInAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("host alloc counts are not stable under the race detector")
	}
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 16384, // 8 MB: the zero fills below never meet memory pressure
		CPUs:       1,
		TLBSize:    64,
	})
	// A free target no machine reaches makes every PageoutScan page out
	// all it can, which is how each level below gets its pager.
	k := core.MustNewKernel(core.Config{
		Machine: machine, Module: vax.New(machine, pmap.ShootImmediate),
		PageSize: 4096, FreeTarget: 1 << 20, FreeMin: 2,
	})
	cpu := machine.CPU(0)
	m := k.NewMap()
	defer m.Destroy()
	m.Pmap().Activate(cpu)

	const (
		depth    = 4 // shadows over the original object
		perLevel = 8 // pages written at each level
		batch    = 64
		runs     = 5
		touched  = (depth + 1) * perLevel
		pages    = touched + batch*(runs+2) // warm-up fault, AllocsPerRun's warm-up run, runs
	)
	addr, err := m.Allocate(0, pages*4096, true)
	if err != nil {
		t.Fatal(err)
	}
	writeLevel := func(level int) {
		t.Helper()
		for page := level * perLevel; page < (level+1)*perLevel; page++ {
			if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(page*4096), []byte{byte(page + 1)}, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The first pages land in the original object; each fork leaves the
	// parent's next writes in a new shadow over everything before it, and
	// the children stay alive so that no level collapses.
	writeLevel(0)
	for level := 1; level <= depth; level++ {
		child := m.Fork()
		defer child.Destroy()
		writeLevel(level)
	}
	// Page out all a scan will take (it leaves the last couple of pages
	// active): every level now has the default pager, holding some of that
	// level's own pages and nothing else. The round-trip count below
	// checks that no level was missed.
	for i := 0; i < 16; i++ {
		k.PageoutScan()
	}

	// A read of a never-written page walks the whole chain, asks every
	// level's pager, hears "unavailable" from each and zero-fills.
	next := touched
	var buf [1]byte
	fault := func() {
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(next*4096), buf[:], false); err != nil {
			t.Fatal(err)
		}
		next++
	}
	before := k.Stats().Snapshot()
	fault()
	after := k.Stats().Snapshot()
	if after.PagerRoundTrips-before.PagerRoundTrips < depth+1 || after.ZeroFillFaults != before.ZeroFillFaults+1 || after.Pageins != before.Pageins {
		t.Fatalf("one fault made %d pager conversations, %d zero fills, %d page-ins; want at least %d, 1, 0",
			after.PagerRoundTrips-before.PagerRoundTrips, after.ZeroFillFaults-before.ZeroFillFaults, after.Pageins-before.Pageins, depth+1)
	}
	next = touched + batch // the warm-up fault used one page of the first batch
	perRun := testing.AllocsPerRun(runs, func() {
		for i := 0; i < batch; i++ {
			fault()
		}
	})
	// A level asks twice when the faulting page is not the first of its
	// cluster (the run's "unavailable" speaks for the first page only), so
	// count the conversations instead of assuming one per level.
	conversations := float64(k.Stats().Snapshot().PagerRoundTrips-after.PagerRoundTrips) / (runs + 1)
	t.Logf("%.0f allocations and %.0f conversations per %d faults", perRun, conversations, batch)
	if conversations < batch*(depth+1) || perRun > conversations {
		t.Fatalf("%.0f allocations for %.0f pager conversations answering \"unavailable\"; budget 1 each (the flight)", perRun, conversations)
	}
}
