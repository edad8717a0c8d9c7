package pmap

import (
	"machvm/internal/hw"
	"machvm/internal/vmtypes"
)

// AccessResult is the outcome of one hardware memory access attempt.
type AccessResult struct {
	// PFN is the frame the access resolved to (valid when Fault is
	// FaultNone).
	PFN vmtypes.PFN
	// Fault is the MMU's verdict.
	Fault vmtypes.FaultKind
	// Reported is the access type the MMU *reported* — on the NS32082
	// read-modify-write faults are always reported as read faults
	// (§5.1), so Reported may differ from the real access.
	Reported vmtypes.Prot
	// MappingProt is the protection of the faulting mapping, if one was
	// present (used by the machine-dependent fault-correction hook).
	MappingProt vmtypes.Prot
	// TLBHit reports whether the TLB satisfied the translation.
	TLBHit bool
}

// Access performs one hardware access of the given type at va through
// cpu's TLB and m's translation structures, charging costs as the real
// machine would. It does not resolve faults — that is the
// machine-independent fault handler's job.
func Access(mod Module, cpu *hw.CPU, m Map, va vmtypes.VA, access vmtypes.Prot) AccessResult {
	machine := mod.Machine()
	pageSize := uint64(machine.Mem.PageSize())
	vpn := uint64(va) / pageSize
	key := hw.TLBKey{Space: m.Space(), VPN: vpn}

	if e, hit := cpu.TLB.Lookup(key); hit {
		cpu.Charge(machine.Cost.MemAccess)
		if e.Prot.Allows(access) {
			mod.MarkAccess(e.PFN, access.Allows(vmtypes.ProtWrite))
			return AccessResult{PFN: e.PFN, Fault: vmtypes.FaultNone, Reported: access, TLBHit: true}
		}
		// A protection mismatch in the TLB may be stale (the mapping
		// was upgraded but this CPU was not shot down — legitimate
		// under the lazy strategy). Hardware refaults; the effect is a
		// flush of the stale entry and a fresh walk.
		cpu.TLB.FlushPage(key)
	}

	cpu.Charge(machine.Cost.TLBMiss)
	pfn, prot, ok := m.Walk(va)
	if !ok {
		return AccessResult{Fault: vmtypes.FaultTranslation, Reported: mod.ReportFault(access)}
	}
	if !prot.Allows(access) {
		return AccessResult{
			Fault:       vmtypes.FaultProtection,
			Reported:    mod.ReportFault(access),
			MappingProt: prot,
		}
	}
	cpu.TLB.Insert(key, hw.TLBEntry{PFN: pfn, Prot: prot})
	cpu.Charge(machine.Cost.MemAccess)
	mod.MarkAccess(pfn, access.Allows(vmtypes.ProtWrite))
	return AccessResult{PFN: pfn, Fault: vmtypes.FaultNone, Reported: access}
}
