package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"machvm/internal/pmap"
	"machvm/internal/trace"
	"machvm/internal/vmtypes"
)

// VM operation errors.
var (
	// ErrNoSpace means no address range of the requested size exists.
	ErrNoSpace = errors.New("vm: no space in address map")
	// ErrInvalidAddress means the range touches unallocated space.
	ErrInvalidAddress = errors.New("vm: invalid address")
	// ErrBadAlignment means an address was not page aligned.
	ErrBadAlignment = errors.New("vm: address not page aligned")
	// ErrProtectionFailure means the requested protection exceeds the
	// maximum protection of the range.
	ErrProtectionFailure = errors.New("vm: protection failure")
	// ErrOutOfRange means the range exceeds the hardware addressing
	// limits.
	ErrOutOfRange = errors.New("vm: address beyond machine limit")
)

// MapEntry maps a contiguous range of virtual addresses onto a contiguous
// area of a memory object (§3.2). All addresses within the range share the
// same inheritance and protection attributes — which can force two entries
// for adjacent regions of one object when the attributes differ.
type MapEntry struct {
	prev, next *MapEntry

	// Treap index links (mapindex.go), guarded by the map's write lock.
	treeLeft, treeRight *MapEntry
	treePrio            uint64

	start, end vmtypes.VA

	// Exactly one of object/submap is non-nil, or both are nil for
	// unfaulted zero-fill memory (the object is created lazily).
	object *Object
	submap *Map

	// offset locates start within the object or submap.
	offset uint64

	// prot is the current protection; maxProt the ceiling it may never
	// exceed (§2.1).
	prot    vmtypes.Prot
	maxProt vmtypes.Prot

	inherit vmtypes.Inherit

	// needsCopy means the entry's object must be shadowed before any
	// write through this entry (the copy-on-write state).
	needsCopy bool

	// wired prevents pageout of the entry's pages.
	wired bool
}

// Span returns the entry's size in bytes.
func (e *MapEntry) Span() uint64 { return uint64(e.end - e.start) }

// Start and End expose the entry's range.
func (e *MapEntry) Start() vmtypes.VA { return e.start }
func (e *MapEntry) End() vmtypes.VA   { return e.end }

// NeedsCopy reports the entry's copy-on-write state.
func (e *MapEntry) NeedsCopy() bool { return e.needsCopy }

// Map is an address map (§3.2): a doubly-linked list of entries sorted by
// ascending virtual address (range operations iterate it), doubled by a
// treap index keyed by start address for O(log n) fault lookups
// (mapindex.go). A sharing map is identical to an address map but is
// referenced by other maps' entries and has no pmap.
//
// Concurrency: the map lock is a read-write lock. Mutators (Allocate,
// Deallocate, Protect, SetInherit, CopyTo, Fork, Wire, Simplify, and the
// fault paths that clip or re-point entries) hold it exclusively and bump
// the version counter; Fault holds it shared, only long enough to look up
// and snapshot an entry and later to revalidate and enter the hardware
// mapping, so concurrent faults on one map no longer serialize across
// pager I/O or zero-fill (DESIGN.md §7).
type Map struct {
	k *Kernel

	mu sync.RWMutex

	// id is the map's stable per-kernel identifier, assigned in creation
	// order. Trace events name maps by this id.
	id uint64

	// version counts entry mutations (structure or attributes). Bumped
	// under the write lock; Fault snapshots it under the read lock and
	// revalidates before pmap enter (fault.go).
	version atomic.Uint64

	head, tail *MapEntry
	nentries   int
	sizeBytes  uint64

	// root is the treap index over the entries; prioState feeds treap
	// priorities. Both are guarded by the write lock.
	root      *MapEntry
	prioState uint64

	min, max vmtypes.VA

	// hint remembers the last entry found, so lookups start from the
	// last fault's position (§3.2 "last fault hints"). Atomic because
	// concurrent read-locked faulters update it; a stale hint is only a
	// wasted probe, never a correctness problem (writers holding the
	// write lock fix it whenever an entry is unlinked).
	hint atomic.Pointer[MapEntry]

	// pm is the task's physical map; nil for sharing maps.
	pm pmap.Map

	isShare bool
	refs    atomic.Int32

	// entryPool recycles MapEntry structs freed by Deallocate and
	// Simplify for reuse by splits and allocations, so steady-state
	// clip/merge traffic (Wire, Protect, fault-driven clips) stops
	// allocating. Guarded by the write lock, linked through next,
	// capped at entryPoolMax.
	entryPool     *MapEntry
	entryPoolSize int
}

// entryPoolMax bounds the per-map free list of recycled entries.
const entryPoolMax = 64

// newEntryLocked returns a zeroed MapEntry, reusing a recycled one when
// available. Caller holds the write lock.
func (m *Map) newEntryLocked() *MapEntry {
	if e := m.entryPool; e != nil {
		m.entryPool = e.next
		m.entryPoolSize--
		e.next = nil
		return e
	}
	return &MapEntry{}
}

// recycleEntryLocked returns an unlinked entry to the pool. Only safe once
// nothing can reach e anymore: it must be out of the entry list, the treap
// and the hint (removeEntryLocked guarantees all three), and the caller
// must be done reading its fields. Caller holds the write lock.
func (m *Map) recycleEntryLocked(e *MapEntry) {
	if m.entryPoolSize >= entryPoolMax {
		return
	}
	*e = MapEntry{next: m.entryPool}
	m.entryPool = e
	m.entryPoolSize++
}

// bumpVersion records an entry mutation. Caller holds the write lock.
func (m *Map) bumpVersion() { m.version.Add(1) }

// NewMap creates a task address map covering [0, limit) where limit is the
// machine's user address-space bound.
func (k *Kernel) NewMap() *Map {
	id := k.mapIDs.Add(1)
	m := &Map{
		k:         k,
		id:        id,
		min:       0,
		max:       k.mod.MaxVA(),
		pm:        k.mod.Create(),
		prioState: seedPrioState(id),
	}
	m.refs.Store(1)
	m.primeEntryPool(4)
	if t := k.TraceOp(); t != nil {
		t.End(trace.OpNewMap, trace.Event{Ret: id}, nil)
	}
	return m
}

// ID returns the map's stable per-kernel identifier.
func (m *Map) ID() uint64 { return m.id }

// primeEntryPool pre-populates the map's entry free list so the first
// allocations and clips recycle instead of allocating — part of keeping
// alloc counts stable from the very first fault (the pool refills
// itself from Deallocate in the steady state).
func (m *Map) primeEntryPool(n int) {
	for i := 0; i < n && m.entryPoolSize < entryPoolMax; i++ {
		e := &MapEntry{next: m.entryPool}
		m.entryPool = e
		m.entryPoolSize++
	}
}

// NewTransitMap creates a pmap-less holding map used to keep out-of-line
// message data in transit between a sender and a receiver: the data is
// copied into it copy-on-write at send time and copied out at receive
// time, so no physical copy happens end to end.
func (k *Kernel) NewTransitMap(size uint64) *Map {
	id := k.mapIDs.Add(1)
	m := &Map{
		k:         k,
		id:        id,
		min:       0,
		max:       vmtypes.VA(k.roundPage(size)*2 + k.pageSize*2),
		isShare:   true,
		prioState: seedPrioState(id),
	}
	m.refs.Store(1)
	return m
}

// newShareMap creates a sharing map spanning [0, size).
func (k *Kernel) newShareMap(size uint64) *Map {
	id := k.mapIDs.Add(1)
	m := &Map{
		k:         k,
		id:        id,
		min:       0,
		max:       vmtypes.VA(size),
		isShare:   true,
		prioState: seedPrioState(id),
	}
	m.refs.Store(1)
	k.stats.ShareMapsMade.Add(1)
	return m
}

// Pmap returns the map's physical map (nil for sharing maps).
func (m *Map) Pmap() pmap.Map { return m.pm }

// IsShareMap reports whether this is a sharing map.
func (m *Map) IsShareMap() bool { return m.isShare }

// Kernel returns the owning kernel.
func (m *Map) Kernel() *Kernel { return m.k }

// Size returns the total bytes of allocated virtual memory.
func (m *Map) Size() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.sizeBytes
}

// EntryCount returns the number of map entries (a typical VAX UNIX
// process has five upon creation, §3.2).
func (m *Map) EntryCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.nentries
}

// Reference adds a reference to the map (used for sharing maps).
func (m *Map) Reference() { m.refs.Add(1) }

// Destroy releases the map; the last release deallocates everything and
// destroys the pmap.
func (m *Map) Destroy() {
	if t := m.k.TraceOp(); t != nil {
		defer t.End(trace.OpDestroyMap, trace.Event{Map: m.id}, nil)
	}
	if m.refs.Add(-1) > 0 {
		return
	}
	m.mu.Lock()
	// Stack-backed collections: teardown of typical maps (a handful of
	// entries) must not allocate. Larger maps spill to the heap via
	// append, which is fine off the fault path.
	var objArr [8]*Object
	var subArr [4]*Map
	objs := objArr[:0]
	subs := subArr[:0]
	for e := m.head; e != nil; e = e.next {
		if e.object != nil {
			objs = append(objs, e.object)
		}
		if e.submap != nil {
			subs = append(subs, e.submap)
		}
	}
	m.head, m.tail, m.root = nil, nil, nil
	m.hint.Store(nil)
	m.nentries = 0
	m.sizeBytes = 0
	m.bumpVersion()
	m.mu.Unlock()
	if m.pm != nil {
		m.pm.Destroy()
	}
	for _, o := range objs {
		m.k.releaseObject(o)
	}
	for _, s := range subs {
		s.Destroy()
	}
}

// charge accounts one address-map entry operation.
func (m *Map) charge() { m.k.machine.Charge(m.k.machine.Cost.MapEntryOp) }

// lookupEntryLocked finds the entry containing va, probing the hint before
// descending the treap index. Safe under the read lock: the only writes
// are atomic hint updates and atomic statistics.
func (m *Map) lookupEntryLocked(va vmtypes.VA) (*MapEntry, bool) {
	k := m.k
	k.stats.MapLookups.Add(1)
	if !k.disableHints {
		if h := m.hint.Load(); h != nil {
			if h.start <= va && va < h.end {
				k.stats.MapHintHits.Add(1)
				k.machine.Charge(k.machine.Cost.MemAccess)
				return h, true
			}
			// Faults walk forward: try the next entry before searching.
			if n := h.next; n != nil && n.start <= va && va < n.end {
				k.stats.MapHintHits.Add(1)
				k.machine.Charge(2 * k.machine.Cost.MemAccess)
				m.hint.Store(n)
				return n, true
			}
			k.stats.MapHintMisses.Add(1)
		}
	}
	e, steps := m.indexLookupLE(va)
	k.machine.Charge(int64(steps+1) * k.machine.Cost.MemAccess)
	if e != nil && va < e.end {
		m.hint.Store(e)
		return e, true
	}
	// Miss: e is the predecessor entry (nil means insert at head).
	return e, false
}

// insertAfterLocked links e after prev (nil prev = head) in both the list
// and the index. Caller holds the write lock.
func (m *Map) insertAfterLocked(prev, e *MapEntry) {
	e.prev = prev
	if prev != nil {
		e.next = prev.next
		prev.next = e
	} else {
		e.next = m.head
		m.head = e
	}
	if e.next != nil {
		e.next.prev = e
	} else {
		m.tail = e
	}
	m.indexInsert(e)
	m.nentries++
	m.sizeBytes += e.Span()
	m.bumpVersion()
	m.charge()
}

// removeEntryLocked unlinks e from the list and the index.
func (m *Map) removeEntryLocked(e *MapEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		m.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		m.tail = e.prev
	}
	if m.hint.Load() == e {
		m.hint.Store(e.prev)
	}
	m.indexRemove(e)
	m.nentries--
	m.sizeBytes -= e.Span()
	e.prev, e.next = nil, nil
	m.bumpVersion()
	m.charge()
}

// clipStartLocked splits e so that it begins exactly at va.
func (m *Map) clipStartLocked(e *MapEntry, va vmtypes.VA) {
	if va <= e.start || va >= e.end {
		return
	}
	left := m.newEntryLocked()
	*left = MapEntry{
		start:     e.start,
		end:       va,
		object:    e.object,
		submap:    e.submap,
		offset:    e.offset,
		prot:      e.prot,
		maxProt:   e.maxProt,
		inherit:   e.inherit,
		needsCopy: e.needsCopy,
		wired:     e.wired,
	}
	if left.object != nil {
		left.object.Reference()
	}
	if left.submap != nil {
		left.submap.Reference()
	}
	// e's index key is its start address: take it out of the treap
	// around the mutation.
	m.indexRemove(e)
	e.offset += uint64(va - e.start)
	m.sizeBytes -= uint64(va - e.start) // the insert adds it back
	e.start = va
	m.indexInsert(e)
	m.insertAfterLocked(e.prev, left)
}

// clipEndLocked splits e so that it ends exactly at va.
func (m *Map) clipEndLocked(e *MapEntry, va vmtypes.VA) {
	if va <= e.start || va >= e.end {
		return
	}
	right := m.newEntryLocked()
	*right = MapEntry{
		start:     va,
		end:       e.end,
		object:    e.object,
		submap:    e.submap,
		offset:    e.offset + uint64(va-e.start),
		prot:      e.prot,
		maxProt:   e.maxProt,
		inherit:   e.inherit,
		needsCopy: e.needsCopy,
		wired:     e.wired,
	}
	if right.object != nil {
		right.object.Reference()
	}
	if right.submap != nil {
		right.submap.Reference()
	}
	m.sizeBytes -= uint64(e.end - va)
	e.end = va
	m.insertAfterLocked(e, right)
}

// findSpaceLocked finds a first-fit hole of the given size.
func (m *Map) findSpaceLocked(size uint64) (vmtypes.VA, error) {
	// Leave page 0 unmapped so nil-pointer-style bugs fault.
	start := m.min + vmtypes.VA(m.k.pageSize)
	for e := m.head; e != nil; e = e.next {
		if uint64(e.start)-uint64(start) >= size && e.start > start {
			return start, nil
		}
		if e.end > start {
			start = e.end
		}
	}
	if uint64(m.max)-uint64(start) >= size {
		return start, nil
	}
	return 0, ErrNoSpace
}

// checkRange validates page alignment and machine limits.
func (m *Map) checkRange(addr vmtypes.VA, size uint64) error {
	if uint64(addr)%m.k.pageSize != 0 {
		return ErrBadAlignment
	}
	if size == 0 || uint64(addr)+size > uint64(m.max) {
		return ErrOutOfRange
	}
	return nil
}

// Allocate implements vm_allocate: allocate and fill with zeros new
// virtual memory, either anywhere or at a specified address (Table 2-1).
// The memory is zero-filled lazily, at fault time.
func (m *Map) Allocate(addr vmtypes.VA, size uint64, anywhere bool) (vmtypes.VA, error) {
	t := m.k.TraceOp()
	m.k.machine.Charge(m.k.machine.Cost.Syscall)
	m.mu.Lock()
	va, err := m.allocateLocked(addr, m.k.roundPage(size), anywhere, nil, 0, vmtypes.ProtDefault, vmtypes.ProtAll, vmtypes.InheritCopy, false)
	m.mu.Unlock()
	if t != nil {
		t.End(trace.OpAllocate, trace.Event{
			Map: m.id, Addr: uint64(addr), Size: size, Flag: anywhere,
			Ret: uint64(va),
		}, &err)
	}
	return va, err
}

// AllocateWithObject maps object bytes [offset, offset+size) at addr (or
// anywhere). This is vm_allocate_with_pager (Table 3-2) generalised: the
// object may come from any pager.
func (m *Map) AllocateWithObject(addr vmtypes.VA, size uint64, anywhere bool, obj *Object, offset uint64, prot, maxProt vmtypes.Prot, inherit vmtypes.Inherit, copyOnWrite bool) (vmtypes.VA, error) {
	t := m.k.TraceOp()
	m.k.machine.Charge(m.k.machine.Cost.Syscall)
	m.mu.Lock()
	va, err := m.allocateLocked(addr, m.k.roundPage(size), anywhere, obj, offset, prot, maxProt, inherit, copyOnWrite)
	m.mu.Unlock()
	if t != nil {
		var objID uint64
		if obj != nil {
			objID = obj.ID()
		}
		cow := int64(0)
		if copyOnWrite {
			cow = 1
		}
		t.End(trace.OpAllocObject, trace.Event{
			Map: m.id, Obj: objID, Addr: uint64(addr), Addr2: offset,
			Size: size, Flag: anywhere,
			Arg: int64(prot) | int64(maxProt)<<8 | int64(inherit)<<16 | cow<<24,
			Ret: uint64(va),
		}, &err)
	}
	return va, err
}

func (m *Map) allocateLocked(addr vmtypes.VA, size uint64, anywhere bool, obj *Object, offset uint64, prot, maxProt vmtypes.Prot, inherit vmtypes.Inherit, needsCopy bool) (vmtypes.VA, error) {
	if anywhere {
		var err error
		addr, err = m.findSpaceLocked(size)
		if err != nil {
			return 0, err
		}
	}
	if err := m.checkRange(addr, size); err != nil {
		return 0, err
	}
	// The range must be vacant.
	prev, hit := m.lookupEntryLocked(addr)
	if hit {
		return 0, ErrInvalidAddress
	}
	next := m.head
	if prev != nil {
		next = prev.next
	}
	if next != nil && next.start < addr+vmtypes.VA(size) {
		return 0, ErrInvalidAddress
	}
	entry := m.newEntryLocked()
	*entry = MapEntry{
		start:     addr,
		end:       addr + vmtypes.VA(size),
		object:    obj,
		offset:    offset,
		prot:      prot,
		maxProt:   maxProt,
		inherit:   inherit,
		needsCopy: needsCopy,
	}
	m.insertAfterLocked(prev, entry)
	return addr, nil
}

// Deallocate implements vm_deallocate: make a range of addresses no
// longer valid (Table 2-1).
func (m *Map) Deallocate(addr vmtypes.VA, size uint64) (err error) {
	if t := m.k.TraceOp(); t != nil {
		defer t.End(trace.OpDeallocate, trace.Event{Map: m.id, Addr: uint64(addr), Size: size}, &err)
	}
	m.k.machine.Charge(m.k.machine.Cost.Syscall)
	size = m.k.roundPage(size)
	if err := m.checkRange(addr, size); err != nil {
		return err
	}
	end := addr + vmtypes.VA(size)

	m.mu.Lock()
	// Stack-backed as in Destroy: the common deallocate covers one or
	// two entries and must stay allocation-free (the zero-fill benchmark
	// cycles Allocate/Touch/Deallocate in its steady state).
	var objArr [8]*Object
	var subArr [4]*Map
	objs := objArr[:0]
	subs := subArr[:0]
	e, hit := m.lookupEntryLocked(addr)
	if !hit {
		if e == nil {
			e = m.head
		} else {
			e = e.next
		}
	} else {
		m.clipStartLocked(e, addr)
	}
	for e != nil && e.start < end {
		m.clipEndLocked(e, end)
		next := e.next
		if e.object != nil {
			objs = append(objs, e.object)
		}
		if e.submap != nil {
			subs = append(subs, e.submap)
		}
		m.removeEntryLocked(e)
		if m.pm != nil {
			m.pm.Remove(e.start, e.end)
		}
		m.recycleEntryLocked(e)
		e = next
	}
	m.mu.Unlock()

	for _, o := range objs {
		m.k.releaseObject(o)
	}
	for _, s := range subs {
		s.Destroy()
	}
	return nil
}

// Protect implements vm_protect: set the protection attribute of an
// address range (Table 2-1). If setMax is true the maximum protection is
// lowered (it can never be raised); lowering it below the current
// protection drags the current protection down with it.
func (m *Map) Protect(addr vmtypes.VA, size uint64, setMax bool, prot vmtypes.Prot) (err error) {
	if t := m.k.TraceOp(); t != nil {
		defer t.End(trace.OpProtect, trace.Event{
			Map: m.id, Addr: uint64(addr), Size: size, Flag: setMax, Arg: int64(prot),
		}, &err)
	}
	m.k.machine.Charge(m.k.machine.Cost.Syscall)
	size = m.k.roundPage(size)
	if err := m.checkRange(addr, size); err != nil {
		return err
	}
	end := addr + vmtypes.VA(size)

	m.mu.Lock()
	defer m.mu.Unlock()
	e, hit := m.lookupEntryLocked(addr)
	if !hit {
		return ErrInvalidAddress
	}
	m.bumpVersion()
	m.clipStartLocked(e, addr)
	for e != nil && e.start < end {
		m.clipEndLocked(e, end)
		if setMax {
			// The maximum protection can only be lowered.
			e.maxProt = e.maxProt.Intersect(prot)
			if !e.maxProt.Allows(e.prot) {
				e.prot = e.prot.Intersect(e.maxProt)
				if m.pm != nil {
					m.pm.Protect(e.start, e.end, e.prot)
				}
			}
		} else {
			if !e.maxProt.Allows(prot) {
				return ErrProtectionFailure
			}
			raised := prot&^e.prot != 0
			e.prot = prot
			if m.pm != nil {
				if raised {
					// Raising protection cannot be done by a
					// pmap_protect (it only reduces); drop the
					// mappings and let faults re-enter with the
					// new protection.
					m.pm.Remove(e.start, e.end)
				} else {
					m.pm.Protect(e.start, e.end, prot)
				}
			}
		}
		if e.next == nil || e.next.start != e.end {
			if e.end < end {
				return ErrInvalidAddress
			}
		}
		e = e.next
	}
	return nil
}

// SetInherit implements vm_inherit: set the inheritance attribute of an
// address range (Table 2-1).
func (m *Map) SetInherit(addr vmtypes.VA, size uint64, inherit vmtypes.Inherit) (err error) {
	if t := m.k.TraceOp(); t != nil {
		defer t.End(trace.OpInherit, trace.Event{
			Map: m.id, Addr: uint64(addr), Size: size, Arg: int64(inherit),
		}, &err)
	}
	m.k.machine.Charge(m.k.machine.Cost.Syscall)
	size = m.k.roundPage(size)
	if err := m.checkRange(addr, size); err != nil {
		return err
	}
	end := addr + vmtypes.VA(size)
	m.mu.Lock()
	defer m.mu.Unlock()
	e, hit := m.lookupEntryLocked(addr)
	if !hit {
		return ErrInvalidAddress
	}
	m.bumpVersion()
	m.clipStartLocked(e, addr)
	for e != nil && e.start < end {
		m.clipEndLocked(e, end)
		e.inherit = inherit
		e = e.next
	}
	return nil
}

// RegionInfo describes one allocated region (vm_regions).
type RegionInfo struct {
	Start, End vmtypes.VA
	Prot       vmtypes.Prot
	MaxProt    vmtypes.Prot
	Inherit    vmtypes.Inherit
	Shared     bool
	NeedsCopy  bool
	ObjectName string
}

// Regions implements vm_regions: return descriptions of the regions of
// the address space (Table 2-1).
func (m *Map) Regions() []RegionInfo {
	m.k.machine.Charge(m.k.machine.Cost.Syscall)
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []RegionInfo
	for e := m.head; e != nil; e = e.next {
		ri := RegionInfo{
			Start:     e.start,
			End:       e.end,
			Prot:      e.prot,
			MaxProt:   e.maxProt,
			Inherit:   e.inherit,
			Shared:    e.submap != nil,
			NeedsCopy: e.needsCopy,
		}
		if e.object != nil {
			ri.ObjectName = e.object.name
		} else if e.submap != nil {
			ri.ObjectName = "(share map)"
		}
		out = append(out, ri)
	}
	return out
}

// String renders the map for debugging.
func (m *Map) String() string {
	regions := m.Regions()
	s := fmt.Sprintf("map[%d entries]", len(regions))
	for _, r := range regions {
		s += fmt.Sprintf(" [%x-%x %v %v]", r.Start, r.End, r.Prot, r.Inherit)
	}
	return s
}
