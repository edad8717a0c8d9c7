// Package vax implements the machine-dependent pmap module for the VAX
// family — the architecture Mach was first implemented on.
//
// A VAX pmap "corresponds to a VAX page table" (§3.6). The hardware wants
// linear page tables, and a full two-gigabyte user space would need eight
// megabytes of them (§5.1); VMS paged the tables, traditional UNIX just
// limited process addressibility. Mach's solution, reproduced here, is to
// keep page tables in physical memory but construct only those parts
// needed to map what is actually in use, creating and destroying page-table
// pages as necessary to conserve space or improve runtime. That necessity,
// plus the small 512-byte VAX page, is what made the VAX's machine-
// dependent module the most complex of the ports.
package vax

import (
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/vmtypes"
)

// Hardware constants.
const (
	// HWPageSize is the VAX hardware page ("pagelet") size.
	HWPageSize = 512
	// pteBytes is the size of one VAX page-table entry.
	pteBytes = 4
	// ptesPerChunk is the number of PTEs in one page-table page; Mach
	// allocates and frees page tables at this granularity.
	ptesPerChunk = HWPageSize / pteBytes
	// MaxUserVA is the VAX user address-space limit: the architecture
	// allows at most 2 gigabytes of user address space (§2.1).
	MaxUserVA = vmtypes.VA(2) << 30
)

// DefaultCost is a cost model plausible for a MicroVAX II-class machine
// (~0.9 VUPS). See DESIGN.md §2 for why only relative shape matters.
func DefaultCost() hw.CostModel {
	return hw.CostModel{
		Name:         "uVAX II",
		TLBMiss:      400,
		WalkLevel:    1200,
		MemAccess:    400,
		FaultTrap:    hw.Microseconds(180),
		Syscall:      hw.Microseconds(150),
		ZeroPerKB:    hw.Microseconds(160),
		CopyPerKB:    hw.Microseconds(320),
		PTEOp:        hw.Microseconds(3),
		MapEntryOp:   hw.Microseconds(40),
		TLBFlushPage: hw.Microseconds(2),
		TLBFlushAll:  hw.Microseconds(25),
		IPI:          hw.Microseconds(120),
		ContextLoad:  hw.Microseconds(60),
		TaskCreate:   hw.Milliseconds(55),
		MsgOp:        hw.Microseconds(300),
		DiskLatency:  hw.Milliseconds(28),
		DiskPerKB:    hw.Microseconds(1600),
	}
}

// Cost8200 approximates a VAX 8200 (used for the paper's file-read rows).
func Cost8200() hw.CostModel {
	c := DefaultCost()
	c.Name = "VAX 8200"
	c.FaultTrap = hw.Microseconds(120)
	c.Syscall = hw.Microseconds(100)
	c.ZeroPerKB = hw.Microseconds(90)
	c.CopyPerKB = hw.Microseconds(180)
	c.TaskCreate = hw.Milliseconds(12)
	c.DiskLatency = hw.Milliseconds(2)
	c.DiskPerKB = hw.Microseconds(1200)
	return c
}

// Cost8650 approximates a VAX 8650 (~6 VUPS; used for Table 7-2).
func Cost8650() hw.CostModel {
	c := DefaultCost()
	c.Name = "VAX 8650"
	c.TLBMiss = 100
	c.WalkLevel = 300
	c.MemAccess = 100
	c.FaultTrap = hw.Microseconds(45)
	c.Syscall = hw.Microseconds(35)
	c.ZeroPerKB = hw.Microseconds(25)
	c.CopyPerKB = hw.Microseconds(50)
	c.PTEOp = hw.Microseconds(1)
	c.MapEntryOp = hw.Microseconds(10)
	c.TaskCreate = hw.Milliseconds(4)
	c.MsgOp = hw.Microseconds(80)
	c.DiskLatency = hw.Milliseconds(5)
	c.DiskPerKB = hw.Microseconds(900)
	return c
}

// spec describes the VAX to the shared table: a linear page table built one
// 512-byte page-table page (128 PTEs, a 64KB span) at a time.
var spec = pmap.TableSpec{
	Name:       "VAX",
	PageSize:   HWPageSize,
	GroupPTEs:  ptesPerChunk,
	MaxVA:      MaxUserVA,
	GroupBytes: HWPageSize,
	// Constructing a page-table page costs a zeroed page of table memory.
	ChargeGroup: func(m *hw.Machine) { m.ChargeKB(m.Cost.ZeroPerKB, HWPageSize) },
	// One extra memory reference through the linear page table.
	WalkLevels: 1,
	// A refault on a resident page finds its PTE already correct; of the
	// three table machines only the VAX module skips the shootdown then.
	ReenterIsNoop: true,
}

// Module is the VAX machine-dependent module.
type Module struct {
	pmap.TableModule
}

// New creates a VAX pmap module for the machine.
func New(m *hw.Machine, strategy pmap.Strategy) *Module {
	mod := &Module{}
	mod.InitTables(spec, m, strategy)
	return mod
}

// vaxMap "corresponds to a VAX page table" (§3.6): the shared on-demand
// table, whose fully and uniformly mapped page-table pages are the closest
// thing 1987 VAX hardware has to a superpage.
type vaxMap struct {
	pmap.RangeTable
}

// Create makes a new, empty VAX physical map (pmap_create).
func (mod *Module) Create() pmap.Map {
	vm := &vaxMap{}
	vm.Init(&mod.TableModule, vm)
	// Six 64KB-span page-table pages cover a 256KB region plus straddle.
	vm.Prime(6)
	return vm
}

// CopyMappings implements the optional pmap_copy of Table 3-4: duplicate
// the valid mappings of [srcAddr, srcAddr+length) into dst, write-
// protected. On the VAX this is a cheap PTE walk, so a fork can prewarm
// the child's page table and spare it a refault per resident page.
func (m *vaxMap) CopyMappings(dst pmap.Map, dstAddr vmtypes.VA, length uint64, srcAddr vmtypes.VA) {
	d, ok := dst.(*vaxMap)
	if !ok || d.Module() != m.Module() {
		return
	}
	end := srcAddr + vmtypes.VA(length)
	for va, pfn, prot, ok := m.Next(srcAddr, end); ok; va, pfn, prot, ok = m.Next(va+HWPageSize, end) {
		d.Enter(va+dstAddr-srcAddr, pfn, prot.Intersect(vmtypes.ProtRead|vmtypes.ProtExecute), false)
	}
}

// Pageable implements the optional pmap_pageable of Table 3-4. The VAX
// module keeps all page-table pages resident, so it has no work to do —
// exactly the "need not perform any hardware function" case.
func (m *vaxMap) Pageable(start, end vmtypes.VA, pageable bool) {}

var (
	_ pmap.Copier       = (*vaxMap)(nil)
	_ pmap.Pageabler    = (*vaxMap)(nil)
	_ pmap.RangeEnterer = (*vaxMap)(nil)
)
