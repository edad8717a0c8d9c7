// Package tlbonly implements the pmap module for a machine that provides
// only an easily manipulated TLB and no in-memory hardware-defined mapping
// structure — the situation the paper describes for the IBM RP3 simulator
// ("a version of Mach has already run on a simulator for the IBM RP3 which
// assumed only TLB hardware support", §5).
//
// In principle Mach needs no in-memory hardware-defined data structure at
// all: every fault can be served from the machine-independent structures.
// This module demonstrates that minimum. It keeps only a small, fixed-size
// software refill cache — the moral equivalent of the TLB-miss handler's
// scratch state — and discards entries from it freely, which is legal
// because the machine-independent layer reconstructs any mapping at fault
// time. It is by far the smallest pmap module, supporting the paper's
// point that such machines "would need little code to be written".
package tlbonly

import (
	"sync"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/vmtypes"
)

// Hardware constants.
const (
	// HWPageSize is the hardware page size (RP3-like).
	HWPageSize = 4096
	// cacheEntries bounds the software refill cache per map.
	cacheEntries = 1024
	// MaxUserVA is a full 32-bit address space.
	MaxUserVA = vmtypes.VA(4) << 30
)

// DefaultCost approximates one RP3-class processor node.
func DefaultCost() hw.CostModel {
	return hw.CostModel{
		Name:         "RP3 (TLB-only)",
		TLBMiss:      800, // miss traps to software
		WalkLevel:    700, // software refill lookup
		MemAccess:    300,
		FaultTrap:    hw.Microseconds(100),
		Syscall:      hw.Microseconds(80),
		ZeroPerKB:    hw.Microseconds(70),
		CopyPerKB:    hw.Microseconds(140),
		PTEOp:        hw.Microseconds(1),
		MapEntryOp:   hw.Microseconds(25),
		TLBFlushPage: hw.Microseconds(2),
		TLBFlushAll:  hw.Microseconds(15),
		IPI:          hw.Microseconds(60),
		ContextLoad:  hw.Microseconds(10),
		TaskCreate:   hw.Milliseconds(8),
		MsgOp:        hw.Microseconds(120),
		DiskLatency:  hw.Milliseconds(25),
		DiskPerKB:    hw.Microseconds(1000),
	}
}

// Module is the TLB-only machine-dependent module.
type Module struct {
	pmap.ModuleBase
}

// New creates a TLB-only pmap module for the machine.
func New(m *hw.Machine, strategy pmap.Strategy) *Module {
	if m.Mem.PageSize() != HWPageSize {
		panic("tlbonly: machine must use 4096-byte hardware pages")
	}
	mod := &Module{}
	mod.InitBase("TLB-only", m, strategy, MaxUserVA, 0)
	return mod
}

// Create makes a new physical map: just a refill cache.
func (mod *Module) Create() pmap.Map {
	tm := &tlbMap{mod: mod, cache: make(map[uint64]centry, cacheEntries)}
	tm.InitCore()
	return tm
}

// victim is a mapping taken out of the cache under the lock, whose pv entry
// and TLB copies go once the lock is dropped.
type victim struct {
	vpn uint64
	pfn vmtypes.PFN
}

// batch is how many pages Remove and Protect change per hold of the lock.
const batch = 64

type centry struct {
	pfn   vmtypes.PFN
	prot  vmtypes.Prot
	wired bool
}

type tlbMap struct {
	pmap.MapCore
	mod *Module

	mu    sync.Mutex
	cache map[uint64]centry
	// fifo is the eviction queue: a power-of-two ring of count vpns from
	// head. A record whose vpn is cached is live whichever Enter made it,
	// so a removed and re-entered vpn is evicted at its old position.
	fifo        []uint64
	head, count int
}

// push appends vpn to the eviction queue, doubling the ring when it is full.
func (m *tlbMap) push(vpn uint64) {
	if m.count == len(m.fifo) {
		grown := make([]uint64, max(2*len(m.fifo), 64))
		n := copy(grown, m.fifo[m.head:])
		copy(grown[n:], m.fifo[:m.head])
		m.fifo, m.head = grown, 0
	}
	m.fifo[(m.head+m.count)&(len(m.fifo)-1)] = vpn
	m.count++
}

// pop takes the oldest record off the eviction queue.
func (m *tlbMap) pop() uint64 {
	vpn := m.fifo[m.head]
	m.head = (m.head + 1) & (len(m.fifo) - 1)
	m.count--
	return vpn
}

// Enter records a mapping in the refill cache, evicting freely when full —
// evicted mappings simply refault.
func (m *tlbMap) Enter(va vmtypes.VA, pfn vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	mod := m.mod
	vpn := uint64(va) / HWPageSize
	mod.Stats().Enters.Add(1)
	mod.Machine().Charge(mod.Machine().Cost.PTEOp)

	// The loop below evicts at most one entry unless wired entries had
	// pushed the cache over its bound, so one on-stack victim serves.
	var one [1]victim
	evicted := one[:0]
	m.mu.Lock()
	old, replaced := m.cache[vpn]
	scanned := 0
	for len(m.cache) >= cacheEntries && !replaced && scanned <= m.count {
		v := m.pop()
		scanned++
		e, ok := m.cache[v]
		switch {
		case !ok:
			// Stale FIFO slot; skip.
		case e.wired:
			// Wired entries survive eviction: rotate to the back.
			m.push(v)
		default:
			delete(m.cache, v)
			evicted = append(evicted, victim{vpn: v, pfn: e.pfn})
		}
	}
	m.cache[vpn] = centry{pfn: pfn, prot: prot, wired: wired}
	if !replaced {
		m.push(vpn)
	}
	m.mu.Unlock()

	if replaced {
		if old.pfn != pfn {
			mod.DB().RemovePV(old.pfn, m, va&^vmtypes.VA(HWPageSize-1))
		}
		mod.Shootdown().InvalidatePage(m.Space(), vpn, m.ActiveCPUs(), true)
	}
	for _, ev := range evicted {
		mod.DB().RemovePV(ev.pfn, m, vmtypes.VA(ev.vpn*HWPageSize))
		mod.Shootdown().InvalidatePage(m.Space(), ev.vpn, m.ActiveCPUs(), true)
	}
	mod.DB().AddPV(pfn, m, va&^vmtypes.VA(HWPageSize-1))
}

// Remove invalidates mappings in [start, end), taking the lock once per
// batch of pages rather than once per page.
func (m *tlbMap) Remove(start, end vmtypes.VA) {
	mod := m.mod
	mod.Stats().Removes.Add(1)
	var buf [batch]victim
	for vpn, last := uint64(start)/HWPageSize, (uint64(end)+HWPageSize-1)/HWPageSize; vpn < last; {
		n := 0
		m.mu.Lock()
		for ; vpn < last && n < len(buf); vpn++ {
			if e, ok := m.cache[vpn]; ok {
				delete(m.cache, vpn)
				buf[n] = victim{vpn: vpn, pfn: e.pfn}
				n++
			}
		}
		m.mu.Unlock()
		mod.Machine().Charge(int64(n) * mod.Machine().Cost.PTEOp)
		for _, v := range buf[:n] {
			mod.DB().RemovePV(v.pfn, m, vmtypes.VA(v.vpn*HWPageSize))
			mod.Shootdown().InvalidatePage(m.Space(), v.vpn, m.ActiveCPUs(), true)
		}
	}
}

// Protect reduces protection on [start, end), batched like Remove.
func (m *tlbMap) Protect(start, end vmtypes.VA, prot vmtypes.Prot) {
	mod := m.mod
	mod.Stats().Protects.Add(1)
	var buf [batch]uint64
	for vpn, last := uint64(start)/HWPageSize, (uint64(end)+HWPageSize-1)/HWPageSize; vpn < last; {
		n := 0
		m.mu.Lock()
		for ; vpn < last && n < len(buf); vpn++ {
			e, ok := m.cache[vpn]
			if np := e.prot.Intersect(prot); ok && np != e.prot {
				e.prot = np
				m.cache[vpn] = e
				buf[n] = vpn
				n++
			}
		}
		m.mu.Unlock()
		mod.Machine().Charge(int64(n) * mod.Machine().Cost.PTEOp)
		for _, v := range buf[:n] {
			mod.Shootdown().InvalidatePage(m.Space(), v, m.ActiveCPUs(), false)
		}
	}
}

// Walk is the software TLB-refill handler: look in the refill cache.
func (m *tlbMap) Walk(va vmtypes.VA) (vmtypes.PFN, vmtypes.Prot, bool) {
	mod := m.mod
	mod.Stats().Walks.Add(1)
	mod.Machine().Charge(mod.Machine().Cost.WalkLevel)
	vpn := uint64(va) / HWPageSize
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.cache[vpn]
	if !ok {
		mod.Stats().WalkMisses.Add(1)
		return 0, 0, false
	}
	return e.pfn, e.prot, true
}

// Extract returns the frame mapped at va (pmap_extract).
func (m *tlbMap) Extract(va vmtypes.VA) (vmtypes.PFN, bool) {
	vpn := uint64(va) / HWPageSize
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.cache[vpn]
	if !ok {
		return 0, false
	}
	return e.pfn, true
}

// Access reports whether va is mapped (pmap_access).
func (m *tlbMap) Access(va vmtypes.VA) bool {
	_, ok := m.Extract(va)
	return ok
}

// Activate makes the map current on a CPU.
func (m *tlbMap) Activate(cpu *hw.CPU) {
	m.mod.Machine().Charge(m.mod.Machine().Cost.ContextLoad)
	m.ActivateOn(cpu)
}

// Deactivate unloads the map from a CPU.
func (m *tlbMap) Deactivate(cpu *hw.CPU) {
	m.DeactivateOn(cpu)
	m.mod.Machine().Charge(m.mod.Machine().Cost.TLBFlushAll)
	cpu.TLB.FlushSpace(m.Space())
}

// Collect empties the refill cache of non-wired entries.
func (m *tlbMap) Collect() {
	m.mod.Stats().Collects.Add(1)
	m.drain(true)
}

// Destroy drops a reference and frees everything when it was the last.
func (m *tlbMap) Destroy() {
	if m.Release() {
		m.drain(false)
	}
}

// drain empties the refill cache, sparing wired entries if keepWired, and
// flushes the space from the active CPUs.
func (m *tlbMap) drain(keepWired bool) {
	mod := m.mod
	var victims []victim
	m.mu.Lock()
	for vpn, e := range m.cache {
		if !(keepWired && e.wired) {
			victims = append(victims, victim{vpn: vpn, pfn: e.pfn})
			delete(m.cache, vpn)
		}
	}
	if !keepWired {
		m.fifo, m.head, m.count = nil, 0, 0
	}
	m.mu.Unlock()
	for _, v := range victims {
		mod.DB().RemovePV(v.pfn, m, vmtypes.VA(v.vpn*HWPageSize))
	}
	mod.Shootdown().InvalidateSpace(m.Space(), m.ActiveCPUs())
}

// ResidentCount returns the refill-cache population.
func (m *tlbMap) ResidentCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cache)
}
