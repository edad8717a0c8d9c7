package tlbonly_test

// The refill cache's eviction order, pinned through the public pmap.Map
// API. The virtual numbers of every TLB-only workload depend on which
// mapping an Enter into a full cache discards, so the order is part of the
// module's contract: a change to how the host stores the queue must leave
// every test here as it found it.

import (
	"testing"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/tlbonly"
	"machvm/internal/vmtypes"
)

// cacheEntries mirrors the module's unexported refill-cache bound.
const cacheEntries = 1024

type world struct {
	t   *testing.T
	mod *tlbonly.Module
	cpu *hw.CPU
	pm  pmap.Map
}

// newWorld boots a one-CPU TLB-only machine with one active map.
func newWorld(t *testing.T) *world {
	t.Helper()
	m := hw.NewMachine(hw.Config{
		Cost:       tlbonly.DefaultCost(),
		HWPageSize: tlbonly.HWPageSize,
		PhysFrames: 8192,
		CPUs:       1,
		TLBSize:    64,
	})
	mod := tlbonly.New(m, pmap.ShootImmediate)
	w := &world{t: t, mod: mod, cpu: m.CPU(0), pm: mod.Create()}
	w.pm.Activate(w.cpu)
	return w
}

func va(vpn int) vmtypes.VA { return vmtypes.VA(vpn) * tlbonly.HWPageSize }

// pfnOf is the frame every test maps vpn to.
func pfnOf(vpn int) vmtypes.PFN { return vmtypes.PFN(vpn + 1) }

func (w *world) enter(vpn int, wired bool) {
	w.pm.Enter(va(vpn), pfnOf(vpn), vmtypes.ProtDefault, wired)
}

// enterRange enters vpns [lo, hi) unwired.
func (w *world) enterRange(lo, hi int) {
	for vpn := lo; vpn < hi; vpn++ {
		w.enter(vpn, false)
	}
}

// mapped requires vpn to be in the cache with its PV entry recorded.
func (w *world) mapped(vpn int) {
	w.t.Helper()
	if pfn, ok := w.pm.Extract(va(vpn)); !ok || pfn != pfnOf(vpn) {
		w.t.Fatalf("vpn %d: Extract = %d,%v; want %d,true", vpn, pfn, ok, pfnOf(vpn))
	}
	if n := w.mod.DB().PVCount(pfnOf(vpn)); n != 1 {
		w.t.Fatalf("vpn %d is mapped but its frame has %d PV entries", vpn, n)
	}
}

// gone requires vpn to be out of the cache and off its frame's PV list.
func (w *world) gone(vpn int) {
	w.t.Helper()
	if w.pm.Access(va(vpn)) {
		w.t.Fatalf("vpn %d should have been discarded", vpn)
	}
	if n := w.mod.DB().PVCount(pfnOf(vpn)); n != 0 {
		w.t.Fatalf("vpn %d is gone but its frame still has %d PV entries", vpn, n)
	}
}

// evicts enters vpn into a full cache and requires that exactly one
// mapping, victim, is discarded for it: the population stays at the bound,
// the victim's PV entry is gone and the CPU saw one page flush.
func (w *world) evicts(vpn, victim int) {
	w.t.Helper()
	w.mapped(victim)
	flushes := w.cpu.TLB.Stats().PageFlushes
	w.enter(vpn, false)
	w.gone(victim)
	w.mapped(vpn)
	if got := w.pm.ResidentCount(); got != cacheEntries {
		w.t.Fatalf("ResidentCount after entering vpn %d = %d; want %d", vpn, got, cacheEntries)
	}
	if got := w.cpu.TLB.Stats().PageFlushes - flushes; got != 1 {
		w.t.Fatalf("entering vpn %d flushed %d pages; want exactly one victim", vpn, got)
	}
}

func TestPlainFIFO(t *testing.T) {
	w := newWorld(t)
	defer w.pm.Destroy()
	w.enterRange(0, cacheEntries)
	if got := w.pm.ResidentCount(); got != cacheEntries {
		t.Fatalf("ResidentCount = %d; want %d", got, cacheEntries)
	}
	// Two full turns of the queue: every entry leaves in the order it came.
	for i := 0; i < 2*cacheEntries; i++ {
		w.evicts(cacheEntries+i, i)
	}
}

func TestReplaceKeepsQueuePosition(t *testing.T) {
	w := newWorld(t)
	defer w.pm.Destroy()
	w.enterRange(0, cacheEntries)
	// Re-entering a cached vpn (here with a new frame) neither evicts nor
	// moves it in the queue.
	const newPFN = 5000
	w.pm.Enter(va(0), newPFN, vmtypes.ProtRead, false)
	if got := w.pm.ResidentCount(); got != cacheEntries {
		t.Fatalf("ResidentCount after replace = %d; want %d", got, cacheEntries)
	}
	if pfn, _ := w.pm.Extract(va(0)); pfn != newPFN {
		t.Fatalf("Extract after replace = %d; want %d", pfn, newPFN)
	}
	if n := w.mod.DB().PVCount(pfnOf(0)); n != 0 {
		t.Fatalf("replaced frame keeps %d PV entries", n)
	}
	w.enter(cacheEntries, false)
	if w.pm.Access(va(0)) {
		t.Fatal("replaced vpn 0 should still be the oldest entry")
	}
	if n := w.mod.DB().PVCount(newPFN); n != 0 {
		t.Fatalf("evicted replacement frame keeps %d PV entries", n)
	}
	w.mapped(1)
}

func TestWiredRotatesToBackAndSurvives(t *testing.T) {
	w := newWorld(t)
	defer w.pm.Destroy()
	w.enter(0, true)
	w.enterRange(1, cacheEntries)
	// vpn 0 is oldest but wired: it moves to the back, vpn 1 goes.
	w.evicts(cacheEntries, 1)
	w.mapped(0)
	// Queue is now 2..1023, 0, 1024. Drain 2..1023.
	for i := 2; i < cacheEntries; i++ {
		w.evicts(cacheEntries+i-1, i)
	}
	// Queue is 0, 1024, ...: the wired entry rotates again, 1024 goes.
	w.evicts(2*cacheEntries-1, cacheEntries)
	w.mapped(0)
}

func TestStaleRecordsAreSkipped(t *testing.T) {
	w := newWorld(t)
	defer w.pm.Destroy()
	w.enterRange(0, cacheEntries)
	w.pm.Remove(va(0), va(2)) // leaves two stale records at the front
	w.gone(0)
	w.gone(1)
	w.enterRange(cacheEntries, cacheEntries+2) // refills without evicting
	if got := w.pm.ResidentCount(); got != cacheEntries {
		t.Fatalf("ResidentCount = %d; want %d", got, cacheEntries)
	}
	w.mapped(2)
	// Both stale records are passed over in one Enter, and one victim taken.
	w.evicts(cacheEntries+2, 2)
	w.evicts(cacheEntries+3, 3)
}

func TestReenteredVPNIsEvictedAtOldPosition(t *testing.T) {
	w := newWorld(t)
	defer w.pm.Destroy()
	w.enterRange(0, cacheEntries)
	// Remove then re-enter vpn 5: it gets a second record at the back, but
	// the record at its old position finds it cached and counts as live.
	w.pm.Remove(va(5), va(6))
	w.enter(5, false)
	next := cacheEntries
	for victim := 0; victim < 5; victim++ {
		w.evicts(next, victim)
		next++
	}
	w.evicts(next, 5) // at its old position, not after 1023
	next++
	for victim := 6; victim < cacheEntries; victim++ {
		w.evicts(next, victim)
		next++
	}
	// The second record of vpn 5 is now stale: skipped, and the first
	// entry made after it goes instead.
	w.evicts(next, cacheEntries)
}

func TestCollectKeepsWired(t *testing.T) {
	w := newWorld(t)
	defer w.pm.Destroy()
	for vpn := 0; vpn < 100; vpn++ {
		w.enter(vpn, vpn%10 == 0)
	}
	w.pm.Collect()
	if got := w.pm.ResidentCount(); got != 10 {
		t.Fatalf("ResidentCount after Collect = %d; want the 10 wired entries", got)
	}
	for vpn := 0; vpn < 100; vpn++ {
		if vpn%10 == 0 {
			w.mapped(vpn)
		} else {
			w.gone(vpn)
		}
	}
	// The queue still works after a Collect: fill up and evict in order.
	// Its records of collected vpns are stale; 1, 2, ... re-entered here
	// are found cached by their old records, so they go first.
	for vpn := 1; w.pm.ResidentCount() < cacheEntries; vpn++ {
		if vpn%10 != 0 {
			w.enter(vpn, false)
		}
	}
	w.evicts(5000, 1)
	w.evicts(5001, 2)
	w.mapped(0)
}

func TestDestroyDropsEverything(t *testing.T) {
	w := newWorld(t)
	w.enter(0, true)
	w.enterRange(1, cacheEntries+50) // 50 evictions on the way
	w.pm.Deactivate(w.cpu)
	w.pm.Destroy()
	if got := w.pm.ResidentCount(); got != 0 {
		t.Fatalf("ResidentCount after Destroy = %d; want 0", got)
	}
	for vpn := 0; vpn < cacheEntries+50; vpn++ {
		w.gone(vpn)
	}
}

func TestOverflowedCacheShrinksBack(t *testing.T) {
	w := newWorld(t)
	defer w.pm.Destroy()
	// A cache full of wired entries cannot evict: it grows past its bound.
	for vpn := 0; vpn < cacheEntries; vpn++ {
		w.enter(vpn, true)
	}
	w.enter(cacheEntries, false)
	if got := w.pm.ResidentCount(); got != cacheEntries+1 {
		t.Fatalf("ResidentCount = %d; want %d (nothing evictable)", got, cacheEntries+1)
	}
	// The failed scan left the queue as 1..1023, 0, 1024. Unwire the two
	// oldest; the next Enter is the one case with two victims, taking the
	// cache back to its bound.
	w.enter(1, false)
	w.enter(2, false)
	w.enter(cacheEntries+1, false)
	w.gone(1)
	w.gone(2)
	w.mapped(3)
	w.mapped(cacheEntries)
	if got := w.pm.ResidentCount(); got != cacheEntries {
		t.Fatalf("ResidentCount = %d; want %d", got, cacheEntries)
	}
}
