package pmap

import (
	"sync"
	"sync/atomic"

	"machvm/internal/vmtypes"
)

// PV is one physical-to-virtual entry: a map and the virtual address at
// which it holds a given physical page. The pv lists let the physical-page
// operations (RemoveAll, CopyOnWrite) find every mapping of a frame.
type PV struct {
	Map Map
	VA  vmtypes.VA
}

// pvBlockShift sets the granule of the pv-list locks: one lock per aligned
// block of 8 frames, the largest hardware-to-Mach page ratio any world
// boots (4096/512 on the VAX and NS32082). The machine-independent layer
// allocates a Mach page as an aligned run of frames, so every pv update
// one Mach page needs falls under one lock; unrelated Mach pages still
// never contend.
const pvBlockShift = 3

type frameState struct {
	// pvs starts as a capacity-1 slice over inline storage (see
	// NewPhysDB), so the common case — a frame mapped in exactly one
	// place — appends without allocating; shared frames grow onto the
	// heap. Guarded by the block lock.
	pvs []PV
	pv0 [1]PV
	// Atomics, as in an MMU: MarkAccess runs on every memory access.
	modified   atomic.Bool
	referenced atomic.Bool
}

// PhysDB is the per-machine physical page database shared by all the pmap
// modules: reverse (physical-to-virtual) mappings plus the modify and
// reference bits the paper's Table 3-3 groups under "modify/reference bit
// maintenance".
type PhysDB struct {
	frames []frameState
	locks  []sync.Mutex // by pfn >> pvBlockShift
	// mapped counts each block's pv entries, changed under the block's
	// lock and read without it: most frames RemoveAll visits are mapped
	// nowhere, and AppendPVs skips the lock of a block that holds nothing.
	mapped []atomic.Int32
}

// NewPhysDB creates a database covering nframes hardware frames.
func NewPhysDB(nframes int) *PhysDB {
	db := &PhysDB{
		frames: make([]frameState, nframes),
		locks:  make([]sync.Mutex, nframes>>pvBlockShift+1),
		mapped: make([]atomic.Int32, nframes>>pvBlockShift+1),
	}
	for i := range db.frames {
		fs := &db.frames[i]
		fs.pvs = fs.pv0[:0:1]
	}
	return db
}

func (db *PhysDB) valid(pfn vmtypes.PFN) bool { return pfn < vmtypes.PFN(len(db.frames)) }

// lockOf returns the lock guarding the pv list of a valid pfn.
func (db *PhysDB) lockOf(pfn vmtypes.PFN) *sync.Mutex { return &db.locks[pfn>>pvBlockShift] }

// addLocked records (m, va) against pfn, coalescing duplicates.
func (db *PhysDB) addLocked(pfn vmtypes.PFN, m Map, va vmtypes.VA) {
	fs := &db.frames[pfn]
	for _, pv := range fs.pvs {
		if pv.Map == m && pv.VA == va {
			return
		}
	}
	fs.pvs = append(fs.pvs, PV{Map: m, VA: va})
	db.mapped[pfn>>pvBlockShift].Add(1)
}

// removeLocked forgets (m, va) against pfn.
func (db *PhysDB) removeLocked(pfn vmtypes.PFN, m Map, va vmtypes.VA) {
	fs := &db.frames[pfn]
	for i, pv := range fs.pvs {
		if pv.Map == m && pv.VA == va {
			fs.pvs[i] = fs.pvs[len(fs.pvs)-1]
			fs.pvs = fs.pvs[:len(fs.pvs)-1]
			db.mapped[pfn>>pvBlockShift].Add(-1)
			return
		}
	}
}

// AddPV records that m maps pfn at va. Duplicate (m, va) pairs are
// coalesced.
func (db *PhysDB) AddPV(pfn vmtypes.PFN, m Map, va vmtypes.VA) {
	if db.valid(pfn) {
		mu := db.lockOf(pfn)
		mu.Lock()
		db.addLocked(pfn, m, va)
		mu.Unlock()
	}
}

// AddRange records that m maps pfns[i] at va + i*stride, taking each block
// lock once per run of frames it covers. Every pfn must be valid.
func (db *PhysDB) AddRange(pfns []vmtypes.PFN, m Map, va, stride vmtypes.VA) {
	for i := 0; i < len(pfns); {
		mu := db.lockOf(pfns[i])
		mu.Lock()
		for blk := pfns[i] >> pvBlockShift; i < len(pfns) && pfns[i]>>pvBlockShift == blk; i++ {
			db.addLocked(pfns[i], m, va+vmtypes.VA(i)*stride)
		}
		mu.Unlock()
	}
}

// RemovePV forgets the (m, va) mapping of pfn.
func (db *PhysDB) RemovePV(pfn vmtypes.PFN, m Map, va vmtypes.VA) {
	if db.valid(pfn) {
		mu := db.lockOf(pfn)
		mu.Lock()
		db.removeLocked(pfn, m, va)
		mu.Unlock()
	}
}

// AppendPVs appends a snapshot of the mappings of pfn to buf, safe to iterate
// while the list itself changes (RemoveAll edits it). A caller passing an
// on-stack buffer allocates only for a frame shared more widely than that.
func (db *PhysDB) AppendPVs(buf []PV, pfn vmtypes.PFN) []PV {
	if db.valid(pfn) && db.mapped[pfn>>pvBlockShift].Load() != 0 {
		mu := db.lockOf(pfn)
		mu.Lock()
		buf = append(buf, db.frames[pfn].pvs...)
		mu.Unlock()
	}
	return buf
}

// PVCount returns how many maps currently hold pfn.
func (db *PhysDB) PVCount(pfn vmtypes.PFN) int {
	var buf [8]PV
	return len(db.AppendPVs(buf[:0], pfn))
}

// MarkAccess sets the reference bit, and the modify bit if write is true.
// The bits are almost always set already, so the common case only loads.
func (db *PhysDB) MarkAccess(pfn vmtypes.PFN, write bool) {
	if !db.valid(pfn) {
		return
	}
	fs := &db.frames[pfn]
	if !fs.referenced.Load() {
		fs.referenced.Store(true)
	}
	if write && !fs.modified.Load() {
		fs.modified.Store(true)
	}
}

// IsModified reports the modify bit.
func (db *PhysDB) IsModified(pfn vmtypes.PFN) bool {
	return db.valid(pfn) && db.frames[pfn].modified.Load()
}

// ClearModify clears the modify bit.
func (db *PhysDB) ClearModify(pfn vmtypes.PFN) {
	if db.valid(pfn) {
		db.frames[pfn].modified.Store(false)
	}
}

// IsReferenced reports the reference bit.
func (db *PhysDB) IsReferenced(pfn vmtypes.PFN) bool {
	return db.valid(pfn) && db.frames[pfn].referenced.Load()
}

// ClearReference clears the reference bit.
func (db *PhysDB) ClearReference(pfn vmtypes.PFN) {
	if db.valid(pfn) {
		db.frames[pfn].referenced.Store(false)
	}
}
