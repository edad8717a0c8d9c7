package pmap

import "machvm/internal/vmtypes"

// Table 3-4 lists two exported but optional pmap routines: pmap_copy and
// pmap_pageable. "These routines need not perform any hardware function" —
// a module implements them only when doing so helps that machine.

// Copier is the optional pmap_copy(dst_pmap, src_pmap, dst_addr, len,
// src_addr): copy the specified virtual mapping. A machine whose mapping
// entries are cheap to duplicate can prewarm a child's map at fork so the
// child does not refault everything; machines where that is a bad trade
// simply do not implement the interface.
type Copier interface {
	// CopyMappings duplicates the mappings of [srcAddr, srcAddr+length)
	// into dst at dstAddr, write-protected (the caller uses this for
	// copy-on-write fork, so the copies must fault on first write).
	CopyMappings(dst Map, dstAddr vmtypes.VA, length uint64, srcAddr vmtypes.VA)
}

// Pageabler is the optional pmap_pageable(pmap, start, end, pageable):
// a hint that a range's mappings will (not) be subject to pageout, letting
// a module keep fragile structures (like VAX page-table pages) resident.
type Pageabler interface {
	Pageable(start, end vmtypes.VA, pageable bool)
}

// RangeEnterer is the optional range extension of pmap_enter: establish a
// run of consecutive hardware mappings in one call. The paper's interface
// is strictly per-page; a module implements RangeEnterer when its table
// structure lets it do materially better than a loop of Enter calls —
// batching lock holds and shootdowns per table granule, and recognizing
// when a granule has become fully and uniformly mapped so it can be
// treated as one large mapping ("superpage"). RangeTable is the shared
// implementation; a machine with nothing to gain does not implement the
// interface and the machine-independent layer falls back to the per-page
// loop (TestOptionalInterfaceMatrix pins which machine has what).
//
// Every mapping established through EnterRange must be indistinguishable,
// through Extract/Access/Walk and the physical-to-virtual database, from
// the same mappings established by individual Enter calls; promotion is a
// module-private representation change, never a semantic one.
type RangeEnterer interface {
	// EnterRange maps len(pfns) consecutive hardware pages starting at
	// va, all with the same protection and wiring. va must be hardware-
	// page aligned; pfns[i] backs va + i*pagesize.
	EnterRange(va vmtypes.VA, pfns []vmtypes.PFN, prot vmtypes.Prot, wired bool)

	// SuperSpan returns the byte span of the module's promotion granule.
	// The machine-independent layer uses it to size promotion attempts.
	SuperSpan() uint64

	// SuperActive reports whether the granule containing va is currently
	// promoted, letting callers skip redundant promotion work.
	SuperActive(va vmtypes.VA) bool
}
