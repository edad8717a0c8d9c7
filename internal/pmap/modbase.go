package pmap

import (
	"machvm/internal/hw"
	"machvm/internal/vmtypes"
)

// ModuleBase carries the state and default behaviour shared by every
// machine-dependent module: the machine handle, the physical page
// database, the shootdown machinery and the counters. Machine modules
// embed it and override what their hardware does differently.
type ModuleBase struct {
	name      string
	machine   *hw.Machine
	db        *PhysDB
	shooter   *Shooter
	stats     ModuleStats
	maxVA     vmtypes.VA
	maxFrames int
}

// InitBase initialises the shared state. maxVA is the user address-space
// limit; maxFrames caps usable physical frames (0 means all of physical
// memory is addressable).
func (b *ModuleBase) InitBase(name string, m *hw.Machine, strategy Strategy, maxVA vmtypes.VA, maxFrames int) {
	b.name = name
	b.machine = m
	b.db = NewPhysDB(m.Mem.NumFrames())
	b.shooter = NewShooter(m, strategy)
	b.maxVA = maxVA
	if maxFrames <= 0 || maxFrames > m.Mem.NumFrames() {
		maxFrames = m.Mem.NumFrames()
	}
	b.maxFrames = maxFrames
}

// Name returns the architecture name.
func (b *ModuleBase) Name() string { return b.name }

// Machine returns the simulated hardware.
func (b *ModuleBase) Machine() *hw.Machine { return b.machine }

// DB returns the physical page database.
func (b *ModuleBase) DB() *PhysDB { return b.db }

// Shootdown returns the TLB consistency machinery.
func (b *ModuleBase) Shootdown() *Shooter { return b.shooter }

// Stats returns the module counters.
func (b *ModuleBase) Stats() *ModuleStats { return &b.stats }

// MaxVA returns the user address-space limit.
func (b *ModuleBase) MaxVA() vmtypes.VA { return b.maxVA }

// MaxFrames returns the physical addressing limit in frames.
func (b *ModuleBase) MaxFrames() int { return b.maxFrames }

// ZeroPage zero-fills a physical page (pmap_zero_page).
func (b *ModuleBase) ZeroPage(pfn vmtypes.PFN) {
	b.stats.ZeroPages.Add(1)
	b.machine.ZeroFrame(pfn)
}

// CopyPage copies a physical page (pmap_copy_page).
func (b *ModuleBase) CopyPage(src, dst vmtypes.PFN) {
	b.stats.CopyPages.Add(1)
	b.machine.CopyFrame(src, dst)
}

// RemoveAll removes a physical page from all maps (pmap_remove_all).
func (b *ModuleBase) RemoveAll(pfn vmtypes.PFN) {
	b.stats.RemoveAlls.Add(1)
	pageSize := vmtypes.VA(b.machine.Mem.PageSize())
	var buf [4]PV
	for _, pv := range b.db.AppendPVs(buf[:0], pfn) {
		pv.Map.Remove(pv.VA, pv.VA+pageSize)
	}
}

// CopyOnWrite revokes write access to a physical page in all maps
// (pmap_copy_on_write).
func (b *ModuleBase) CopyOnWrite(pfn vmtypes.PFN) {
	b.stats.CopyOnWrites.Add(1)
	pageSize := vmtypes.VA(b.machine.Mem.PageSize())
	var buf [4]PV
	for _, pv := range b.db.AppendPVs(buf[:0], pfn) {
		pv.Map.Protect(pv.VA, pv.VA+pageSize, vmtypes.ProtRead|vmtypes.ProtExecute)
	}
}

// Modify/reference bit maintenance, backed by the physical page database.

// IsModified reports the page's modify bit.
func (b *ModuleBase) IsModified(pfn vmtypes.PFN) bool { return b.db.IsModified(pfn) }

// ClearModify clears the page's modify bit.
func (b *ModuleBase) ClearModify(pfn vmtypes.PFN) { b.db.ClearModify(pfn) }

// IsReferenced reports the page's reference bit.
func (b *ModuleBase) IsReferenced(pfn vmtypes.PFN) bool { return b.db.IsReferenced(pfn) }

// ClearReference clears the page's reference bit.
func (b *ModuleBase) ClearReference(pfn vmtypes.PFN) { b.db.ClearReference(pfn) }

// MarkAccess records an access, as the MMU would on the real machine.
func (b *ModuleBase) MarkAccess(pfn vmtypes.PFN, write bool) { b.db.MarkAccess(pfn, write) }

// Update forces delayed invalidations to completion (pmap_update).
func (b *ModuleBase) Update() { b.shooter.Update() }

// ReportFault reports the access faithfully; machines with reporting bugs
// override it.
func (b *ModuleBase) ReportFault(real vmtypes.Prot) vmtypes.Prot { return real }

// CorrectFaultAccess passes the reported access through unchanged;
// machines with reporting bugs override it with their workaround.
func (b *ModuleBase) CorrectFaultAccess(reported, mappingProt vmtypes.Prot) vmtypes.Prot {
	return reported
}

// HWPageSize returns the machine's hardware page size in bytes.
func (b *ModuleBase) HWPageSize() int { return b.machine.Mem.PageSize() }
