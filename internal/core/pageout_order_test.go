package core

// Regression test for the §5.2 flush-before-pageout batching bug. The old
// reclaim path carried a per-scan "flushed" flag: only the first victim of
// a scan got a pmap_update between pmap_remove_all and its pageout I/O;
// every later victim was written out while its TLB invalidations could
// still sit in per-CPU deferred queues. Strategy (2) of §5.2 requires the
// opposite: "the system first removes the mapping from any primary memory
// mapping data structures and then initiates pageout only after all
// referencing TLBs have been flushed." This test fails against the old
// reclaimPage (one Update per scan) and passes against the batched
// two-phase scan (one Update per batch, before any victim's I/O).

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/vax"
	"machvm/internal/vmtypes"
)

// updateOrderModule wraps a pmap module and tracks which frames have had
// RemoveAll issued without a subsequent Update: the set of mappings whose
// TLB shootdown may still be pending.
type updateOrderModule struct {
	pmap.Module
	mu        sync.Mutex
	unflushed map[vmtypes.PFN]bool
}

func (m *updateOrderModule) RemoveAll(pfn vmtypes.PFN) {
	m.Module.RemoveAll(pfn)
	m.mu.Lock()
	m.unflushed[pfn] = true
	m.mu.Unlock()
}

func (m *updateOrderModule) Update() {
	m.Module.Update()
	m.mu.Lock()
	m.unflushed = make(map[vmtypes.PFN]bool)
	m.mu.Unlock()
}

// pending reports whether any frame of the Mach page starting at pfn still
// awaits a flush.
func (m *updateOrderModule) pending(pfn vmtypes.PFN, hwRatio int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 0; i < hwRatio; i++ {
		if m.unflushed[pfn+vmtypes.PFN(i)] {
			return true
		}
	}
	return false
}

// orderCheckPager asserts, at the moment pageout I/O starts, that the page
// being written has no pending TLB flush.
type orderCheckPager struct {
	Pager
	k          *Kernel
	mod        *updateOrderModule
	mu         sync.Mutex
	violations []string
	writes     int
}

func (p *orderCheckPager) DataWrite(ctx context.Context, obj *Object, offset uint64, data []byte) error {
	if pg := p.k.lookupPage(obj, offset); pg != nil {
		if p.mod.pending(pg.pfn, p.k.hwRatio) {
			p.mu.Lock()
			p.violations = append(p.violations,
				fmt.Sprintf("pageout I/O for pfn %d (offset %#x) before its TLB flush", pg.pfn, offset))
			p.mu.Unlock()
		}
	}
	p.mu.Lock()
	p.writes++
	p.mu.Unlock()
	return p.Pager.DataWrite(ctx, obj, offset, data)
}

func TestPageoutFlushBeforeWrite(t *testing.T) {
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 1024, // 128 Mach pages of 4KB
		CPUs:       2,
		TLBSize:    64,
	})
	// Deferred shootdown is the strategy the §5.2 protocol exists for:
	// RemoveAll only queues per-CPU invalidations; Update forces them.
	mod := &updateOrderModule{
		Module:    vax.New(machine, pmap.ShootDeferred),
		unflushed: make(map[vmtypes.PFN]bool),
	}
	k := MustNewKernel(Config{
		Machine:    machine,
		Module:     mod,
		PageSize:   4096,
		FreeTarget: 128, // everything reclaimable is wanted back
		FreeMin:    2,
	})
	pager := &orderCheckPager{Pager: k.SwapPager(), k: k, mod: mod}
	k.SetSwapPager(pager)

	m := k.NewMap()
	defer m.Destroy()
	cpu := machine.CPU(0)
	m.Pmap().Activate(cpu)

	const pages = 48
	addr, err := m.Allocate(0, pages*4096, true)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Dirty every page, then make them all pageout candidates.
	for i := 0; i < pages; i++ {
		va := addr + vmtypes.VA(i*4096)
		if err := k.AccessBytes(cpu, m, va, []byte{byte(i)}, true); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
	for i := 0; i < pages; i++ {
		if p := m.residentPageAt(addr + vmtypes.VA(i*4096)); p != nil {
			k.deactivatePage(p)
		}
	}

	k.PageoutScan()

	pager.mu.Lock()
	writes, violations := pager.writes, pager.violations
	pager.mu.Unlock()
	// More than one dirty victim per scan is the precondition the old
	// single-flush path got wrong; without it the test proves nothing.
	if writes < 2 {
		t.Fatalf("scan wrote only %d dirty pages; test needs a multi-victim scan", writes)
	}
	if len(violations) != 0 {
		t.Fatalf("%d §5.2 ordering violations, e.g. %s", len(violations), violations[0])
	}
}
