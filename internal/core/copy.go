package core

import (
	"machvm/internal/pmap"
	"machvm/internal/trace"
	"machvm/internal/vmtypes"
)

// This file implements the copy-on-write machinery: vm_copy within a task,
// copying ranges between maps (the substrate of large message transfers —
// "an entire address space may be sent in a single message with no actual
// data copy operations performed", §2.1), and fork inheritance (§2.1).

// copyEntryCOWLocked prepares copy-on-write clones of src (already clipped
// to the exact range being copied) and returns the unlinked clones. For a
// plain object entry there is exactly one clone; a share-mapped entry
// yields one clone per underlying sharing-map entry, because the *copy*
// must be a by-value snapshot of the shared data, not another sharer.
//
// Both sides are marked needs-copy and the source's hardware mappings are
// write-protected, so the first write on either side takes a fault and
// pushes the page into a fresh shadow object (§3.4).
func (m *Map) copyEntryCOWLocked(src *MapEntry) []*MapEntry {
	if src.submap != nil {
		return m.copyShareEntryCOWLocked(src)
	}
	clone := &MapEntry{
		start:     src.start,
		end:       src.end,
		object:    src.object,
		offset:    src.offset,
		prot:      src.prot,
		maxProt:   src.maxProt,
		inherit:   src.inherit,
		needsCopy: src.needsCopy,
	}
	if src.object == nil {
		// Unfaulted zero-fill memory: the copy is also zero-fill.
		return []*MapEntry{clone}
	}
	src.object.Reference()
	clone.needsCopy = true
	if !src.needsCopy {
		src.needsCopy = true
		m.bumpVersion() // in-flight faults must re-check needs-copy
		if m.pm != nil && src.prot.Allows(vmtypes.ProtWrite) {
			// Revoke write access so the source faults on its next
			// write too (pmap_protect on the source range).
			m.pm.Protect(src.start, src.end, src.prot.Intersect(vmtypes.ProtRead|vmtypes.ProtExecute))
		}
	}
	return []*MapEntry{clone}
}

// copyShareEntryCOWLocked snapshots the window of a sharing map that src
// covers: each underlying object entry is cloned copy-on-write, and the
// needs-copy marking is applied to the sharing map itself so that *every*
// sharer's next write is pushed into a shadow ("map operations that should
// apply to all maps sharing the data are simply applied to the sharing
// map", §3.4).
func (m *Map) copyShareEntryCOWLocked(src *MapEntry) []*MapEntry {
	sm := src.submap
	winStart := vmtypes.VA(src.offset)
	winEnd := winStart + vmtypes.VA(src.Span())

	sm.mu.Lock()
	defer sm.mu.Unlock()
	var clones []*MapEntry
	e, hit := sm.lookupEntryLocked(winStart)
	if hit {
		sm.clipStartLocked(e, winStart)
	} else {
		if e == nil {
			e = sm.head
		} else {
			e = e.next
		}
	}
	for e != nil && e.start < winEnd {
		sm.clipEndLocked(e, winEnd)
		if e.object != nil {
			e.object.Reference()
			if !e.needsCopy {
				e.needsCopy = true
				sm.bumpVersion() // sharers' in-flight faults must re-check
				m.k.writeProtectObjectRange(e.object, e.offset, e.Span())
			}
		}
		clones = append(clones, &MapEntry{
			start:     src.start + (e.start - winStart),
			end:       src.start + (e.end - winStart),
			object:    e.object,
			offset:    e.offset,
			prot:      src.prot,
			maxProt:   src.maxProt,
			inherit:   src.inherit,
			needsCopy: e.object != nil,
		})
		e = e.next
	}
	return clones
}

// writeProtectObjectRange revokes write access to every resident page of
// obj within [offset, offset+size) in every pmap (pmap_copy_on_write).
func (k *Kernel) writeProtectObjectRange(obj *Object, offset, size uint64) {
	for _, p := range k.collectObjectRange(obj, offset, size) {
		k.writeProtectAll(p)
	}
}

// CopyTo virtually copies [srcAddr, srcAddr+size) of this map into dst at
// dstAddr (anywhere if requested), copy-on-write. It returns the address
// chosen in dst. This is the engine behind both vm_copy and out-of-line
// message data transfer.
func (m *Map) CopyTo(dst *Map, srcAddr vmtypes.VA, size uint64, dstAddr vmtypes.VA, anywhere bool) (va vmtypes.VA, err error) {
	if t := m.k.TraceOp(); t != nil {
		e := trace.Event{
			Map: m.id, Map2: dst.id, Addr: uint64(srcAddr), Size: size,
			Addr2: uint64(dstAddr), Flag: anywhere,
		}
		defer func() { e.Ret = uint64(va); t.End(trace.OpCopyTo, e, &err) }()
	}
	size = m.k.roundPage(size)
	if err := m.checkRange(srcAddr, size); err != nil {
		return 0, err
	}
	srcEnd := srcAddr + vmtypes.VA(size)

	// Lock ordering: source before destination; a map is never copied
	// into itself at an overlapping range by callers (vm_copy uses
	// distinct ranges and clips them apart).
	sameMap := m == dst
	m.mu.Lock()
	if !sameMap {
		dst.mu.Lock()
	}
	unlock := func() {
		if !sameMap {
			dst.mu.Unlock()
		}
		m.mu.Unlock()
	}

	if anywhere {
		var err error
		dstAddr, err = dst.findSpaceLocked(size)
		if err != nil {
			unlock()
			return 0, err
		}
	}
	if err := dst.checkRange(dstAddr, size); err != nil {
		unlock()
		return 0, err
	}
	// Destination must be vacant.
	if prev, hit := dst.lookupEntryLocked(dstAddr); hit {
		unlock()
		return 0, ErrInvalidAddress
	} else {
		next := dst.head
		if prev != nil {
			next = prev.next
		}
		if next != nil && next.start < dstAddr+vmtypes.VA(size) {
			unlock()
			return 0, ErrInvalidAddress
		}
	}

	// Source must be fully allocated.
	e, hit := m.lookupEntryLocked(srcAddr)
	if !hit {
		unlock()
		return 0, ErrInvalidAddress
	}
	m.clipStartLocked(e, srcAddr)
	var clones []*MapEntry
	for e != nil && e.start < srcEnd {
		m.clipEndLocked(e, srcEnd)
		if e.start >= srcEnd {
			break
		}
		delta := int64(dstAddr) - int64(srcAddr)
		for _, clone := range m.copyEntryCOWLocked(e) {
			clone.start = vmtypes.VA(int64(clone.start) + delta)
			clone.end = vmtypes.VA(int64(clone.end) + delta)
			clones = append(clones, clone)
		}
		if e.next != nil && e.next.start != e.end && e.end < srcEnd {
			// Hole inside the source range.
			for _, c := range clones {
				if c.object != nil {
					defer m.k.releaseObject(c.object)
				}
				if c.submap != nil {
					defer c.submap.Destroy()
				}
			}
			unlock()
			return 0, ErrInvalidAddress
		}
		e = e.next
	}
	// Insert the clones into dst.
	prev, _ := dst.lookupEntryLocked(dstAddr)
	for _, c := range clones {
		dst.insertAfterLocked(prev, c)
		prev = c
	}
	unlock()
	return dstAddr, nil
}

// Copy implements vm_copy: virtually copy a range of memory from one
// address to another within the task (Table 2-1). The destination range
// is replaced.
func (m *Map) Copy(srcAddr vmtypes.VA, size uint64, dstAddr vmtypes.VA) error {
	t := m.k.TraceOp()
	m.k.machine.Charge(m.k.machine.Cost.Syscall)
	err := m.Deallocate(dstAddr, size)
	if err == nil || err == ErrInvalidAddress {
		_, err = m.CopyTo(m, srcAddr, size, dstAddr, false)
	}
	if t != nil {
		t.End(trace.OpCopy, trace.Event{
			Map: m.id, Addr: uint64(srcAddr), Size: size,
			Addr2: uint64(dstAddr),
		}, &err)
	}
	return err
}

// Fork builds a child address map from this one according to the
// inheritance values of its entries (§2.1): shared entries are shared
// read/write through a sharing map, copy entries are copied by value with
// copy-on-write, and none entries leave the child's range unallocated.
func (m *Map) Fork() *Map {
	t := m.k.TraceOp()
	child := m.k.NewMap()
	m.k.machine.Charge(m.k.machine.Cost.TaskCreate)

	m.mu.Lock()
	for e := m.head; e != nil; e = e.next {
		switch e.inherit {
		case vmtypes.InheritNone:
			continue
		case vmtypes.InheritCopy:
			for _, clone := range m.copyEntryCOWLocked(e) {
				child.mu.Lock()
				child.insertAfterLocked(child.tail, clone)
				child.mu.Unlock()
			}
			if m.k.prewarmFork && m.pm != nil {
				// Optional pmap_copy (Table 3-4): duplicate the
				// parent's (now write-protected) mappings so the
				// child's first reads do not fault.
				if c, ok := m.pm.(pmap.Copier); ok {
					c.CopyMappings(child.pm, e.start, e.Span(), e.start)
				}
			}
		case vmtypes.InheritShared:
			m.shareEntryLocked(e)
			e.submap.Reference()
			clone := &MapEntry{
				start:   e.start,
				end:     e.end,
				submap:  e.submap,
				offset:  e.offset,
				prot:    e.prot,
				maxProt: e.maxProt,
				inherit: e.inherit,
			}
			child.mu.Lock()
			child.insertAfterLocked(child.tail, clone)
			child.mu.Unlock()
		}
	}
	m.mu.Unlock()
	if t != nil {
		t.End(trace.OpFork, trace.Event{Map: m.id, Ret: child.id}, nil)
	}
	return child
}

// shareEntryLocked converts an object entry into a sharing-map entry:
// read/write sharing needs a map-like structure that other address maps
// can reference (§3.4), so the entry's object moves into a fresh sharing
// map and the entry points at the sharing map instead.
func (m *Map) shareEntryLocked(e *MapEntry) {
	if e.submap != nil {
		return
	}
	sm := m.k.newShareMap(e.Span())
	inner := &MapEntry{
		start:     0,
		end:       vmtypes.VA(e.Span()),
		object:    e.object, // transfer the reference
		offset:    e.offset,
		prot:      vmtypes.ProtAll,
		maxProt:   vmtypes.ProtAll,
		inherit:   vmtypes.InheritShared,
		needsCopy: e.needsCopy,
	}
	sm.mu.Lock()
	sm.insertAfterLocked(nil, inner)
	sm.mu.Unlock()
	e.object = nil
	e.submap = sm
	e.offset = 0
	e.needsCopy = false
	m.bumpVersion() // the entry now resolves through the sharing map
}
