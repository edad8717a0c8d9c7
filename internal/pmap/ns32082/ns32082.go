// Package ns32082 implements the machine-dependent pmap module for the
// National Semiconductor NS32082 MMU used by both the Encore MultiMax and
// the Sequent Balance — the multiprocessors Mach ran on.
//
// The chip posed several problems unrelated to multiprocessing (§5.1):
// only 16 megabytes of virtual memory may be addressed per page table,
// only 32 megabytes of physical memory may be addressed, and a chip bug
// causes read-modify-write faults to always be reported as read faults,
// even though Mach depends on detecting write faults for copy-on-write.
// The workaround reproduced here is the observation that a *reported* read
// fault against a mapping that already permits reading cannot actually be
// a read fault, so it must be serviced as a write.
package ns32082

import (
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/vmtypes"
)

// Hardware constants.
const (
	// HWPageSize is the NS32082 hardware page size.
	HWPageSize = 512
	// l2Entries is the number of PTEs per second-level table and
	// l1Entries the number of second-level tables; together they cover
	// exactly the 16MB virtual limit (256 * 128 * 512 bytes).
	l1Entries = 256
	l2Entries = 128
	// MaxUserVA is the 16-megabyte per-page-table virtual limit.
	MaxUserVA = vmtypes.VA(16) << 20
	// MaxPhysBytes is the 32-megabyte physical addressing limit. (The
	// MultiMax later added special hardware to address a full 4GB; the
	// module models the stock chip.)
	MaxPhysBytes = 32 << 20
	// l2TableBytes is the memory footprint of one second-level table.
	l2TableBytes = l2Entries * 4
)

// DefaultCost approximates one NS32032 processor of an Encore MultiMax or
// Sequent Balance (~0.75 MIPS per CPU).
func DefaultCost() hw.CostModel {
	return hw.CostModel{
		Name:         "NS32082 (MultiMax/Balance)",
		TLBMiss:      600,
		WalkLevel:    1000,
		MemAccess:    450,
		FaultTrap:    hw.Microseconds(200),
		Syscall:      hw.Microseconds(160),
		ZeroPerKB:    hw.Microseconds(170),
		CopyPerKB:    hw.Microseconds(340),
		PTEOp:        hw.Microseconds(3),
		MapEntryOp:   hw.Microseconds(45),
		TLBFlushPage: hw.Microseconds(3),
		TLBFlushAll:  hw.Microseconds(30),
		IPI:          hw.Microseconds(90), // the buses were built for IPIs
		ContextLoad:  hw.Microseconds(50),
		TaskCreate:   hw.Milliseconds(20),
		MsgOp:        hw.Microseconds(320),
		DiskLatency:  hw.Milliseconds(28),
		DiskPerKB:    hw.Microseconds(1500),
	}
}

// spec describes the NS32082 to the shared table: a two-level page table
// whose 128-entry second-level tables are built on demand.
var spec = pmap.TableSpec{
	Name:       "NS32082",
	PageSize:   HWPageSize,
	GroupPTEs:  l2Entries,
	MaxVA:      MaxUserVA,
	MaxFrames:  MaxPhysBytes / HWPageSize,
	GroupBytes: l2TableBytes,
	// A new second-level table is a zeroed 512 bytes of table memory.
	ChargeGroup: func(m *hw.Machine) { m.ChargeKB(m.Cost.ZeroPerKB, l2TableBytes) },
	WalkLevels:  2,
}

// Module is the NS32082 machine-dependent module.
type Module struct {
	pmap.TableModule
}

// New creates an NS32082 pmap module for the machine. Physical frames
// beyond the 32MB limit exist but are unusable: MaxFrames reports the cap
// and the machine-independent layer must not hand them out.
func New(m *hw.Machine, strategy pmap.Strategy) *Module {
	mod := &Module{}
	mod.InitTables(spec, m, strategy)
	return mod
}

// ReportFault models the chip bug: a write (read-modify-write) access that
// faults is reported as a read fault.
func (mod *Module) ReportFault(real vmtypes.Prot) vmtypes.Prot {
	if real.Allows(vmtypes.ProtWrite) {
		return vmtypes.ProtRead
	}
	return real
}

// CorrectFaultAccess is the machine-dependent workaround: a reported read
// fault against a mapping that already allows reads must really have been
// a write, so service it as one. Translation faults (no mapping) cannot be
// disambiguated; they are serviced as reported, and if the access was
// actually a write the subsequent protection fault is corrected here.
func (mod *Module) CorrectFaultAccess(reported, mappingProt vmtypes.Prot) vmtypes.Prot {
	if reported == vmtypes.ProtRead && mappingProt.Allows(vmtypes.ProtRead) {
		return vmtypes.ProtWrite
	}
	return reported
}

// Create makes a new two-level page table (pmap_create): the shared table
// as it stands — the chip's quirks are all in the module's limits and its
// fault reporting.
func (mod *Module) Create() pmap.Map {
	t := &pmap.Table{}
	t.Init(&mod.TableModule, t)
	return t
}
