package pmap

import (
	"sync"
	"sync/atomic"

	"machvm/internal/hw"
)

var spaceCounter atomic.Uint32

// AllocSpace returns a fresh address-space identifier for TLB tagging.
func AllocSpace() uint32 { return spaceCounter.Add(1) }

// MapCore is the state every machine-dependent Map shares: a space
// identifier, a reference count, and the set of CPUs the map is active on.
// It is embedded by each machine's map implementation.
type MapCore struct {
	space uint32
	refs  atomic.Int32

	activeMu sync.Mutex
	active   []*hw.CPU
	// activeSnap is a copy-on-write snapshot of active, rebuilt on every
	// (rare) activate/deactivate so the hot shootdown paths can read the
	// CPU set without locking or allocating. The slice behind the pointer
	// is immutable: readers iterate it, never mutate or retain it.
	activeSnap atomic.Pointer[[]*hw.CPU]
}

// InitCore initialises the core with a fresh space and one reference.
func (mc *MapCore) InitCore() {
	mc.space = AllocSpace()
	mc.refs.Store(1)
}

// Space returns the TLB space identifier.
func (mc *MapCore) Space() uint32 { return mc.space }

// Reference adds a reference (pmap_reference).
func (mc *MapCore) Reference() { mc.refs.Add(1) }

// Release drops a reference and reports whether it was the last.
func (mc *MapCore) Release() bool { return mc.refs.Add(-1) <= 0 }

// Refs returns the current reference count.
func (mc *MapCore) Refs() int32 { return mc.refs.Load() }

// ActivateOn records that cpu is now running with this map.
func (mc *MapCore) ActivateOn(cpu *hw.CPU) {
	mc.activeMu.Lock()
	defer mc.activeMu.Unlock()
	for _, c := range mc.active {
		if c == cpu {
			return
		}
	}
	mc.active = append(mc.active, cpu)
	mc.snapLocked()
}

// snapLocked rebuilds the immutable active-CPU snapshot; activeMu held.
func (mc *MapCore) snapLocked() {
	snap := make([]*hw.CPU, len(mc.active))
	copy(snap, mc.active)
	mc.activeSnap.Store(&snap)
}

// DeactivateOn records that cpu no longer runs with this map.
func (mc *MapCore) DeactivateOn(cpu *hw.CPU) {
	mc.activeMu.Lock()
	defer mc.activeMu.Unlock()
	for i, c := range mc.active {
		if c == cpu {
			mc.active[i] = mc.active[len(mc.active)-1]
			mc.active = mc.active[:len(mc.active)-1]
			mc.snapLocked()
			return
		}
	}
}

// ActiveCPUs returns a snapshot of the CPUs this map is active on.
// Full information as to which processors are currently using which maps
// is provided to pmap from machine-independent code (§3.6). The returned
// slice is a shared immutable snapshot (copy-on-write, refreshed by
// ActivateOn/DeactivateOn): callers iterate it but must not mutate or
// retain it, which keeps per-page shootdowns allocation-free.
func (mc *MapCore) ActiveCPUs() []*hw.CPU {
	if snap := mc.activeSnap.Load(); snap != nil {
		return *snap
	}
	return nil
}
