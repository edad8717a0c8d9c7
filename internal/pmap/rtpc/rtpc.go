// Package rtpc implements the machine-dependent pmap module for the
// IBM RT PC, whose ROMP MMU uses a single system-wide inverted page table.
//
// The inverted table describes which virtual address maps to each physical
// frame; translation hashes the virtual address to query it. A full
// 4-gigabyte address space costs no extra table space (Mach benefited from
// "significantly reduced memory requirements for large programs"), but the
// design allows only one valid mapping per physical page, so sharing a
// frame between tasks triggers alias faults: each access by a different
// task evicts the previous owner's mapping and the previous owner refaults.
// Mach treats the inverted table as "a kind of large, in-memory cache for
// the RT's translation lookaside buffer" (§5.1) — the machine-independent
// layer happily re-enters whatever the table forgot, and the paper reports
// those extra faults were rare enough in practice that Mach outperformed
// ACIS 4.2a, which avoided aliasing with shared segments.
package rtpc

import (
	"sync"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/vmtypes"
)

// Hardware constants.
const (
	// HWPageSize is the RT PC hardware page size.
	HWPageSize = 2048
	// iptEntryBytes approximates one inverted-page-table entry plus its
	// hash anchor share.
	iptEntryBytes = 16
	// MaxUserVA: an RT PC task can address a full 4 gigabytes under
	// Mach (§2.1).
	MaxUserVA = vmtypes.VA(4) << 30
)

// DefaultCost approximates an IBM RT PC (~2 MIPS RISC, slow memory).
func DefaultCost() hw.CostModel {
	return hw.CostModel{
		Name:         "RT PC",
		TLBMiss:      500,
		WalkLevel:    900, // one hash probe
		MemAccess:    350,
		FaultTrap:    hw.Microseconds(140),
		Syscall:      hw.Microseconds(110),
		ZeroPerKB:    hw.Microseconds(120),
		CopyPerKB:    hw.Microseconds(240),
		PTEOp:        hw.Microseconds(4),
		MapEntryOp:   hw.Microseconds(30),
		TLBFlushPage: hw.Microseconds(3),
		TLBFlushAll:  hw.Microseconds(30),
		IPI:          hw.Microseconds(130),
		ContextLoad:  hw.Microseconds(20), // load segment registers
		TaskCreate:   hw.Milliseconds(38),
		MsgOp:        hw.Microseconds(250),
		DiskLatency:  hw.Milliseconds(30),
		DiskPerKB:    hw.Microseconds(1700),
	}
}

type hashKey struct {
	space uint32
	vpn   uint64
}

type iptEntry struct {
	valid bool
	wired bool
	owner *rtMap
	vpn   uint64
	prot  vmtypes.Prot
}

// Module is the RT PC machine-dependent module. All per-mapping state
// lives in the single inverted page table shared by every map.
type Module struct {
	pmap.ModuleBase

	mu   sync.Mutex
	ipt  []iptEntry
	hash map[hashKey]vmtypes.PFN
}

// New creates an RT PC pmap module for the machine. The inverted table is
// sized by physical memory, once, at boot.
func New(m *hw.Machine, strategy pmap.Strategy) *Module {
	if m.Mem.PageSize() != HWPageSize {
		panic("rtpc: machine must use 2048-byte hardware pages")
	}
	mod := &Module{
		ipt:  make([]iptEntry, m.Mem.NumFrames()),
		hash: make(map[hashKey]vmtypes.PFN),
	}
	mod.InitBase("RT PC", m, strategy, MaxUserVA, 0)
	mod.Stats().AddTableBytes(int64(m.Mem.NumFrames()) * iptEntryBytes)
	return mod
}

// Create makes a new physical map (pmap_create): on the RT this is just a
// set of segment-register values; the mapping state is the shared IPT.
func (mod *Module) Create() pmap.Map {
	rm := &rtMap{mod: mod}
	rm.InitCore()
	return rm
}

type rtMap struct {
	pmap.MapCore
	mod      *Module
	resident int // guarded by mod.mu
}

// Enter establishes a mapping. If the frame already holds a different
// mapping — aliasing — the old owner is evicted and will refault, which is
// exactly the RT behaviour the paper describes.
func (m *rtMap) Enter(va vmtypes.VA, pfn vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	mod := m.mod
	vpn := uint64(va) / HWPageSize
	mod.Stats().Enters.Add(1)
	mod.Machine().Charge(mod.Machine().Cost.PTEOp)

	var evicted *iptEntry
	var evictedCopy iptEntry
	mod.mu.Lock()
	e := &mod.ipt[pfn]
	if e.valid && (e.owner != m || e.vpn != vpn) {
		// One valid mapping per physical page: replace the alias.
		evictedCopy = *e
		evicted = &evictedCopy
		delete(mod.hash, hashKey{space: e.owner.Space(), vpn: e.vpn})
		e.owner.resident--
		mod.Stats().AliasReplaces.Add(1)
	}
	// A task may also remap a different frame at the same virtual
	// address; drop the stale hash target if it points elsewhere.
	k := hashKey{space: m.Space(), vpn: vpn}
	if old, ok := mod.hash[k]; ok && old != pfn {
		oe := &mod.ipt[old]
		if oe.valid && oe.owner == m && oe.vpn == vpn {
			oe.valid = false
			m.resident--
			// PhysDB's pv lock is a leaf, taken inside mod.mu.
			mod.DB().RemovePV(old, m, vmtypes.VA(vpn*HWPageSize))
		}
		delete(mod.hash, k)
	}
	fresh := !(e.valid && e.owner == m && e.vpn == vpn)
	*e = iptEntry{valid: true, wired: wired, owner: m, vpn: vpn, prot: prot}
	mod.hash[k] = pfn
	if fresh {
		m.resident++
	}
	mod.mu.Unlock()

	if evicted != nil {
		mod.DB().RemovePV(pfn, evicted.owner, vmtypes.VA(evicted.vpn*HWPageSize))
		mod.Shootdown().InvalidatePage(evicted.owner.Space(), evicted.vpn, evicted.owner.ActiveCPUs(), true)
	}
	mod.Shootdown().InvalidatePage(m.Space(), vpn, m.ActiveCPUs(), true)
	mod.DB().AddPV(pfn, m, va&^vmtypes.VA(HWPageSize-1))
}

// Remove invalidates mappings in [start, end).
func (m *rtMap) Remove(start, end vmtypes.VA) {
	mod := m.mod
	mod.Stats().Removes.Add(1)
	for vpn := uint64(start) / HWPageSize; vpn < (uint64(end)+HWPageSize-1)/HWPageSize; vpn++ {
		k := hashKey{space: m.Space(), vpn: vpn}
		mod.mu.Lock()
		pfn, ok := mod.hash[k]
		if !ok {
			mod.mu.Unlock()
			continue
		}
		e := &mod.ipt[pfn]
		if !e.valid || e.owner != m || e.vpn != vpn {
			mod.mu.Unlock()
			continue
		}
		e.valid = false
		delete(mod.hash, k)
		m.resident--
		mod.mu.Unlock()

		mod.Machine().Charge(mod.Machine().Cost.PTEOp)
		mod.DB().RemovePV(pfn, m, vmtypes.VA(vpn*HWPageSize))
		mod.Shootdown().InvalidatePage(m.Space(), vpn, m.ActiveCPUs(), true)
	}
}

// Protect reduces protection on [start, end).
func (m *rtMap) Protect(start, end vmtypes.VA, prot vmtypes.Prot) {
	mod := m.mod
	mod.Stats().Protects.Add(1)
	for vpn := uint64(start) / HWPageSize; vpn < (uint64(end)+HWPageSize-1)/HWPageSize; vpn++ {
		k := hashKey{space: m.Space(), vpn: vpn}
		mod.mu.Lock()
		pfn, ok := mod.hash[k]
		changed := false
		if ok {
			e := &mod.ipt[pfn]
			if e.valid && e.owner == m && e.vpn == vpn {
				np := e.prot.Intersect(prot)
				changed = np != e.prot
				e.prot = np
			}
		}
		mod.mu.Unlock()
		if changed {
			mod.Machine().Charge(mod.Machine().Cost.PTEOp)
			mod.Shootdown().InvalidatePage(m.Space(), vpn, m.ActiveCPUs(), false)
		}
	}
}

// Walk performs the hardware hash lookup into the inverted table.
func (m *rtMap) Walk(va vmtypes.VA) (vmtypes.PFN, vmtypes.Prot, bool) {
	mod := m.mod
	mod.Stats().Walks.Add(1)
	mod.Machine().Charge(mod.Machine().Cost.WalkLevel)
	vpn := uint64(va) / HWPageSize
	mod.mu.Lock()
	defer mod.mu.Unlock()
	pfn, ok := mod.hash[hashKey{space: m.Space(), vpn: vpn}]
	if !ok {
		mod.Stats().WalkMisses.Add(1)
		return 0, 0, false
	}
	e := mod.ipt[pfn]
	if !e.valid || e.owner != m || e.vpn != vpn {
		mod.Stats().WalkMisses.Add(1)
		return 0, 0, false
	}
	return pfn, e.prot, true
}

// Extract returns the frame mapped at va (pmap_extract).
func (m *rtMap) Extract(va vmtypes.VA) (vmtypes.PFN, bool) {
	vpn := uint64(va) / HWPageSize
	m.mod.mu.Lock()
	defer m.mod.mu.Unlock()
	pfn, ok := m.mod.hash[hashKey{space: m.Space(), vpn: vpn}]
	if !ok {
		return 0, false
	}
	e := m.mod.ipt[pfn]
	if !e.valid || e.owner != m || e.vpn != vpn {
		return 0, false
	}
	return pfn, true
}

// Access reports whether va is mapped (pmap_access).
func (m *rtMap) Access(va vmtypes.VA) bool {
	_, ok := m.Extract(va)
	return ok
}

// Activate loads the map's segment registers on a CPU.
func (m *rtMap) Activate(cpu *hw.CPU) {
	m.mod.Machine().Charge(m.mod.Machine().Cost.ContextLoad)
	m.ActivateOn(cpu)
}

// Deactivate unloads the map from a CPU.
func (m *rtMap) Deactivate(cpu *hw.CPU) {
	m.DeactivateOn(cpu)
	m.mod.Machine().Charge(m.mod.Machine().Cost.TLBFlushAll)
	cpu.TLB.FlushSpace(m.Space())
}

// Collect discards this map's non-wired inverted-table entries.
func (m *rtMap) Collect() {
	m.mod.Stats().Collects.Add(1)
	m.drain(true)
}

// Destroy drops a reference and clears the map's entries when it was the
// last one.
func (m *rtMap) Destroy() {
	if m.Release() {
		m.drain(false)
	}
}

// drain discards this map's inverted-table entries, sparing the wired ones
// if keepWired, and flushes the space from the active CPUs.
func (m *rtMap) drain(keepWired bool) {
	mod := m.mod
	type victim struct {
		pfn vmtypes.PFN
		vpn uint64
	}
	var victims []victim
	mod.mu.Lock()
	for pfn := range mod.ipt {
		e := &mod.ipt[pfn]
		if e.valid && e.owner == m && !(keepWired && e.wired) {
			victims = append(victims, victim{pfn: vmtypes.PFN(pfn), vpn: e.vpn})
			delete(mod.hash, hashKey{space: m.Space(), vpn: e.vpn})
			e.valid = false
			m.resident--
		}
	}
	mod.mu.Unlock()
	for _, v := range victims {
		mod.DB().RemovePV(v.pfn, m, vmtypes.VA(v.vpn*HWPageSize))
	}
	mod.Shootdown().InvalidateSpace(m.Space(), m.ActiveCPUs())
}

// ResidentCount returns the number of inverted-table entries owned.
func (m *rtMap) ResidentCount() int {
	m.mod.mu.Lock()
	defer m.mod.mu.Unlock()
	return m.resident
}
