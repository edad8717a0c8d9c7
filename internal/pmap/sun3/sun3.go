// Package sun3 implements the machine-dependent pmap module for the SUN 3.
//
// The SUN 3 MMU combines segment maps and page maps held in dedicated MMU
// RAM, which makes sparse 256-megabyte address maps reasonably cheap — but
// only 8 contexts exist at any one time. With more than 8 active tasks,
// tasks compete for contexts, and a task whose context is stolen loses its
// loaded translations and refaults them on its next run, "introducing
// additional page faults as on the RT" (§5.1). The machine's other quirk
// is a physical address space with large holes (display memory addressed
// as high physical memory); the hole handling lives in hw.PhysMem and this
// module simply never sees the unpopulated frames, mirroring how the SUN
// port contained the problem entirely within machine-dependent code.
package sun3

import (
	"sync"
	"sync/atomic"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/vmtypes"
)

// Hardware constants.
const (
	// HWPageSize is the SUN 3 hardware page size.
	HWPageSize = 8192
	// pagesPerPMEG is the number of page entries in one page-map entry
	// group; a PMEG maps one 128KB segment.
	pagesPerPMEG = 16
	// segmentSize is the span of one segment-map entry.
	segmentSize = HWPageSize * pagesPerPMEG
	// NumContexts is the number of hardware contexts.
	NumContexts = 8
	// MaxUserVA: the SUN 3 manages per-task address maps up to 256
	// megabytes each (§5.1).
	MaxUserVA = vmtypes.VA(256) << 20
	// mmuRAMBytes approximates the fixed MMU RAM: 8 contexts of segment
	// map plus the PMEG array.
	mmuRAMBytes = NumContexts*(int(MaxUserVA/segmentSize))*2 + 256*pagesPerPMEG*4
)

// DefaultCost approximates a SUN 3/160 (16.67 MHz 68020).
func DefaultCost() hw.CostModel {
	return hw.CostModel{
		Name:         "SUN 3/160",
		TLBMiss:      300,
		WalkLevel:    500,
		MemAccess:    250,
		FaultTrap:    hw.Microseconds(90),
		Syscall:      hw.Microseconds(70),
		ZeroPerKB:    hw.Microseconds(55),
		CopyPerKB:    hw.Microseconds(110),
		PTEOp:        hw.Microseconds(2),
		MapEntryOp:   hw.Microseconds(20),
		TLBFlushPage: hw.Microseconds(2),
		TLBFlushAll:  hw.Microseconds(20),
		IPI:          hw.Microseconds(100),
		ContextLoad:  hw.Microseconds(40),
		TaskCreate:   hw.Milliseconds(55),
		MsgOp:        hw.Microseconds(150),
		DiskLatency:  hw.Milliseconds(4),
		DiskPerKB:    hw.Microseconds(1100),
	}
}

// spec describes the SUN 3 to the shared table: segment map over page-map
// entry groups, each PMEG the page table for one 128KB segment.
var spec = pmap.TableSpec{
	Name:      "SUN 3",
	PageSize:  HWPageSize,
	GroupPTEs: pagesPerPMEG,
	MaxVA:     MaxUserVA,
	// PMEGs live in the fixed MMU RAM New accounts for: GroupBytes is 0,
	// and loading one costs a quarter of a PTE write per entry.
	ChargeGroup: func(m *hw.Machine) { m.Charge(m.Cost.PTEOp * pagesPerPMEG / 4) },
	// Segment map, then page map; a promoted PMEG is satisfied from the
	// segment probe alone.
	WalkLevels: 2,
}

// Module is the SUN 3 machine-dependent module.
type Module struct {
	pmap.TableModule

	mu       sync.Mutex
	contexts [NumContexts]*sun3Map
	lruClock uint64
}

// New creates a SUN 3 pmap module for the machine. Declare the display-
// memory hole when building the hw.Machine (see DisplayHole).
func New(m *hw.Machine, strategy pmap.Strategy) *Module {
	mod := &Module{}
	mod.InitTables(spec, m, strategy)
	mod.Stats().AddTableBytes(int64(mmuRAMBytes))
	return mod
}

// DisplayHole returns a frame range describing display memory mapped as
// high physical memory, covering holeFrames frames ending at totalFrames.
func DisplayHole(totalFrames, holeFrames int) hw.FrameRange {
	if holeFrames >= totalFrames {
		holeFrames = totalFrames / 2
	}
	return hw.FrameRange{
		Start: vmtypes.PFN(totalFrames - holeFrames),
		End:   vmtypes.PFN(totalFrames),
	}
}

// Create makes a new physical map. It owns no hardware context until it is
// activated or entered into.
func (mod *Module) Create() pmap.Map {
	sm := &sun3Map{mod: mod}
	sm.Init(&mod.TableModule, sm)
	return sm
}

// sun3Map is the shared table plus the one thing it cannot express:
// hardware state exists only inside one of the 8 contexts' MMU RAM.
type sun3Map struct {
	pmap.RangeTable
	mod *Module

	// context and lastUsed are guarded by mod.mu; haveContext is
	// atomic because the hot Walk path reads it.
	context     int
	lastUsed    uint64
	haveContext atomic.Bool
}

// ContextSteals returns the module-wide count of stolen contexts.
func (mod *Module) ContextSteals() uint64 { return mod.Stats().ContextSteals.Load() }

// acquireContext gives m a hardware context, stealing the least recently
// used one if all 8 are taken. The victim loses its loaded translations:
// its MMU-RAM segment and page maps are reused, so the machine-independent
// layer must rebuild them by refaulting.
func (mod *Module) acquireContext(m *sun3Map) {
	mod.mu.Lock()
	mod.lruClock++
	m.lastUsed = mod.lruClock
	if m.haveContext.Load() {
		mod.mu.Unlock()
		return
	}
	slot := -1
	var victim *sun3Map
	for i, owner := range mod.contexts {
		if owner == nil {
			slot = i
			break
		}
	}
	if slot < 0 {
		// Steal the least recently used context.
		var oldest uint64 = ^uint64(0)
		for i, owner := range mod.contexts {
			if owner.lastUsed < oldest && owner != m {
				oldest = owner.lastUsed
				slot = i
			}
		}
		victim = mod.contexts[slot]
		mod.Stats().ContextSteals.Add(1)
	}
	mod.contexts[slot] = m
	m.context = slot
	m.haveContext.Store(true)
	if victim != nil {
		victim.haveContext.Store(false)
		victim.context = -1
	}
	mod.mu.Unlock()

	if victim != nil {
		// Wired entries survive: Mach keeps a shadow of them and reloads
		// eagerly.
		victim.Drain(true)
	}
	mod.Machine().Charge(mod.Machine().Cost.ContextLoad)
}

// Enter acquires a context first if necessary: hardware state can exist
// only inside a context's MMU RAM.
func (m *sun3Map) Enter(va vmtypes.VA, pfn vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	m.mod.acquireContext(m)
	m.RangeTable.Enter(va, pfn, prot, wired)
}

// EnterRange makes one context acquisition for the whole run.
func (m *sun3Map) EnterRange(va vmtypes.VA, pfns []vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	if len(pfns) == 0 {
		return
	}
	m.mod.acquireContext(m)
	m.RangeTable.EnterRange(va, pfns, prot, wired)
}

// Walk performs the hardware translation. A map without a context has no
// loaded translations: everything faults until the context is re-acquired.
func (m *sun3Map) Walk(va vmtypes.VA) (vmtypes.PFN, vmtypes.Prot, bool) {
	if m.haveContext.Load() {
		return m.RangeTable.Walk(va)
	}
	mod := m.mod
	mod.Stats().Walks.Add(1)
	mod.Machine().Charge(spec.WalkLevels * mod.Machine().Cost.WalkLevel)
	mod.Stats().WalkMisses.Add(1)
	return 0, 0, false
}

// Activate makes the map current on a CPU, competing for one of the 8
// contexts. (Deactivate retains the context — that is the point of
// contexts — until another task steals it.)
func (m *sun3Map) Activate(cpu *hw.CPU) {
	m.mod.acquireContext(m)
	m.ActivateOn(cpu)
}

// Destroy releases the map, freeing its context.
func (m *sun3Map) Destroy() {
	if !m.Release() {
		return
	}
	m.Drain(false)
	mod := m.mod
	mod.mu.Lock()
	if m.haveContext.Load() {
		mod.contexts[m.context] = nil
		m.haveContext.Store(false)
		m.context = -1
	}
	mod.mu.Unlock()
}

var _ pmap.RangeEnterer = (*sun3Map)(nil)
