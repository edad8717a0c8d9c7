package core

import (
	"context"
	"errors"
	"fmt"

	"machvm/internal/pmap"
	"machvm/internal/trace"
	"machvm/internal/vmtypes"
)

// Fault errors.
var (
	// ErrFaultNoEntry means the address is not allocated.
	ErrFaultNoEntry = errors.New("vm_fault: no map entry for address")
	// ErrFaultProtection means the access exceeds the entry's current
	// protection.
	ErrFaultProtection = errors.New("vm_fault: protection violation")
	// ErrFaultUnavailable means the object's pager reported the data
	// does not exist.
	ErrFaultUnavailable = errors.New("vm_fault: data unavailable from pager")
	// ErrNoMemory (page.go) is also returned here: physical memory is
	// exhausted and repeated pageout scans reclaimed nothing.
)

// faultState is the per-fault scratch: the entry snapshot taken under the
// map read lock, carried across the unlocked resolution phase (shadow
// walk, pager I/O, zero-fill) and checked again before the hardware
// mapping is entered. It lives on the Fault frame — never heap-allocated —
// which is what keeps the resident-hit fast path at zero allocations.
type faultState struct {
	topMap    *Map
	pageAddr  vmtypes.VA
	access    vmtypes.Prot
	wantWrite bool

	// Snapshot of the resolved entry (possibly one level down a sharing
	// map). obj carries a reference taken under the lock; holding it
	// keeps the whole shadow chain collapse-safe while the map lock is
	// dropped (see faultPageLookup).
	obj       *Object
	offset    uint64 // page-aligned offset of the fault within obj
	prot      vmtypes.Prot
	wired     bool
	needsCopy bool
	share     bool // obj was reached through a sharing map

	// Cluster window: the resolved entry's object range [winLo, winHi) in
	// obj's byte coordinates. Fault-in clustering never reads outside it,
	// so readahead cannot touch offsets the entry does not map.
	winLo uint64
	winHi uint64

	// Entry bounds in the top map's address space (direct entries only),
	// used to clip superpage-span promotion to the entry.
	entryStart vmtypes.VA
	entryEnd   vmtypes.VA

	// sm is the sharing map the entry resolved through (referenced;
	// released with Destroy), nil for direct entries. smOff is the fault
	// address in sm's coordinates.
	sm    *Map
	smOff vmtypes.VA

	version   uint64 // topMap.version at snapshot time
	smVersion uint64 // sm.version at snapshot time
}

// Fault resolves one page fault at va in map m for the given access
// (§3 and DESIGN.md §5: the fault path). All virtual memory information
// can be reconstructed here from the machine-independent structures, which
// is what lets the pmap layer forget mappings at will.
//
// The fault is read-mostly (DESIGN.md §7): the map lock is held shared for
// the entry lookup and again for revalidate + pmap enter, and not at all
// across page resolution. When a concurrent mutator changes the map in
// between, the fault restarts from scratch — the same discipline Mach uses
// when it restarts the faulting instruction.
func (k *Kernel) Fault(m *Map, va vmtypes.VA, access vmtypes.Prot) error {
	return k.FaultContext(context.Background(), m, va, access)
}

// FaultContext is Fault with caller-controlled cancellation: a fault stuck
// behind a slow pager returns when ctx fires instead of blocking for the
// kernel's full pager deadline. The underlying pager conversation keeps
// running to its own deadline and resolves the busy page either way.
func (k *Kernel) FaultContext(ctx context.Context, m *Map, va vmtypes.VA, access vmtypes.Prot) error {
	t := k.TraceOp()
	// Per-fault latency is the virtual-clock delta across the whole fault.
	// Exact under the single-goroutine deterministic-world discipline;
	// under parallel load other CPUs advance the same clock, so the
	// recorded value includes contention — which is the latency a tenant
	// actually observes.
	start := k.machine.Clock.Now()
	k.stats.Faults.Add(1)
	k.machine.Charge(k.machine.Cost.FaultTrap)

	pageAddr := vmtypes.VA(k.truncPage(uint64(va)))
	var done bool
	var err error
	for !done {
		if err = ctx.Err(); err != nil {
			err = fmt.Errorf("vm_fault: %w", err)
			break
		}
		if done, err = k.faultOnce(ctx, m, pageAddr, access); !done {
			k.stats.FaultRetries.Add(1)
		}
	}
	k.faultLatency.Record(k.machine.Clock.Now() - start)
	if t != nil {
		// Every serviced fault is also an observation the replayer must
		// reproduce — same address, same access, same virtual-clock
		// completion time — whether or not it is the outermost op.
		e := trace.Event{Map: m.id, Addr: uint64(va), Arg: int64(access), Err: traceErr(err)}
		k.traceObserve(trace.EvFault, e)
		t.End(trace.OpFault, e, nil)
	}
	return err
}

// faultOnce runs one attempt: snapshot, resolve, revalidate. done=false
// means the map mutated underneath the attempt and the caller must retry.
func (k *Kernel) faultOnce(ctx context.Context, m *Map, pageAddr vmtypes.VA, access vmtypes.Prot) (done bool, err error) {
	var fs faultState
	fs.topMap = m
	fs.pageAddr = pageAddr
	fs.access = access
	fs.wantWrite = access.Allows(vmtypes.ProtWrite)

	retry, err := k.faultSnapshot(&fs)
	if err != nil {
		return true, err
	}
	if retry {
		return false, nil
	}
	done, err = k.faultFinish(ctx, &fs)
	k.releaseObject(fs.obj)
	if fs.sm != nil {
		fs.sm.Destroy() // drops the reference taken in faultSnapshot
	}
	return done, err
}

// faultSnapshot looks up the faulting entry and captures everything the
// unlocked resolution phase needs. On success fs.obj holds a reference
// (and fs.sm one on the sharing map, if any); on error or retry nothing
// is held. Entry mutations the fault itself requires — the COW shadow of
// §3.4 and the lazy zero-fill object — upgrade to the write lock.
func (k *Kernel) faultSnapshot(fs *faultState) (retry bool, err error) {
	m := fs.topMap
	m.mu.RLock()
	entry, hit := m.lookupEntryLocked(fs.pageAddr)
	if !hit {
		m.mu.RUnlock()
		return false, ErrFaultNoEntry
	}

	// Resolve a sharing map: the target entry lives one level down.
	if sm := entry.submap; sm != nil {
		fs.sm = sm
		fs.smOff = vmtypes.VA(entry.offset) + (fs.pageAddr - entry.start)
		fs.prot = entry.prot
		fs.share = true
		fs.version = m.version.Load()
		sm.Reference()
		m.mu.RUnlock()
		return k.faultSnapshotInner(fs)
	}

	if !entry.prot.Allows(fs.access) {
		m.mu.RUnlock()
		return false, ErrFaultProtection
	}
	if (fs.wantWrite && entry.needsCopy) || entry.object == nil {
		// The entry itself must mutate: redo the lookup under the write
		// lock (the entry may have changed while no lock was held).
		m.mu.RUnlock()
		m.mu.Lock()
		entry, hit = m.lookupEntryLocked(fs.pageAddr)
		if !hit {
			m.mu.Unlock()
			return false, ErrFaultNoEntry
		}
		if entry.submap != nil {
			// Raced with a share conversion; restart the fault.
			m.mu.Unlock()
			return true, nil
		}
		if !entry.prot.Allows(fs.access) {
			m.mu.Unlock()
			return false, ErrFaultProtection
		}
		if fs.wantWrite && entry.needsCopy {
			// Copy-on-write: a write through a needs-copy entry pushes
			// data into a fresh shadow object first (§3.4).
			k.shadowEntryLocked(m, entry)
			m.bumpVersion()
		}
		if entry.object == nil {
			// Lazy allocation: zero-fill memory gets its internal
			// object on first touch.
			entry.object = k.newAnonObject(entry.Span())
			entry.offset = 0
			m.bumpVersion()
		}
		fs.snapEntry(k, entry, fs.pageAddr)
		fs.version = m.version.Load()
		m.mu.Unlock()
		return false, nil
	}
	fs.snapEntry(k, entry, fs.pageAddr)
	fs.version = m.version.Load()
	m.mu.RUnlock()
	return false, nil
}

// faultSnapshotInner snapshots the entry one level down the sharing map.
// fs.sm is referenced by the caller; error paths release it.
func (k *Kernel) faultSnapshotInner(fs *faultState) (retry bool, err error) {
	sm := fs.sm
	dropSM := func() {
		sm.Destroy()
		fs.sm = nil
	}
	sm.mu.RLock()
	inner, ok := sm.lookupEntryLocked(fs.smOff)
	if !ok {
		sm.mu.RUnlock()
		dropSM()
		return false, ErrFaultNoEntry
	}
	// The outer entry's protection governs the access (the inner entries
	// of a sharing map are kept fully permissive).
	if !fs.prot.Allows(fs.access) {
		sm.mu.RUnlock()
		dropSM()
		return false, ErrFaultProtection
	}
	if (fs.wantWrite && inner.needsCopy) || inner.object == nil {
		sm.mu.RUnlock()
		sm.mu.Lock()
		inner, ok = sm.lookupEntryLocked(fs.smOff)
		if !ok {
			sm.mu.Unlock()
			dropSM()
			return false, ErrFaultNoEntry
		}
		if fs.wantWrite && inner.needsCopy {
			// Shadowing the sharing map's entry is the §3.4 "applies to
			// all sharers" action, so doing it here is correct even if
			// our own top-level entry is concurrently deallocated.
			k.shadowEntryLocked(sm, inner)
			sm.bumpVersion()
		}
		if inner.object == nil {
			inner.object = k.newAnonObject(inner.Span())
			inner.offset = 0
			sm.bumpVersion()
		}
		fs.snapInner(k, inner)
		fs.smVersion = sm.version.Load()
		sm.mu.Unlock()
		return false, nil
	}
	fs.snapInner(k, inner)
	fs.smVersion = sm.version.Load()
	sm.mu.RUnlock()
	return false, nil
}

// snapEntry records a direct entry's coordinates and references its
// object. The map lock (read or write) is held.
func (fs *faultState) snapEntry(k *Kernel, entry *MapEntry, entryAddr vmtypes.VA) {
	fs.obj = entry.object
	fs.obj.Reference()
	fs.offset = k.truncPage(entry.offset + uint64(entryAddr-entry.start))
	fs.prot = entry.prot
	fs.wired = entry.wired
	fs.needsCopy = entry.needsCopy
	fs.winLo = k.truncPage(entry.offset)
	fs.winHi = k.roundPage(entry.offset + entry.Span())
	fs.entryStart = entry.start
	fs.entryEnd = entry.end
}

// snapInner records a sharing-map entry's coordinates; the outer prot
// recorded by faultSnapshot stays authoritative.
func (fs *faultState) snapInner(k *Kernel, inner *MapEntry) {
	fs.obj = inner.object
	fs.obj.Reference()
	fs.offset = k.truncPage(inner.offset + uint64(fs.smOff-inner.start))
	fs.wired = inner.wired
	fs.needsCopy = inner.needsCopy
	fs.winLo = k.truncPage(inner.offset)
	fs.winHi = k.roundPage(inner.offset + inner.Span())
}

// faultFinish resolves the page with no map lock held, then revalidates
// the snapshot under the read lock and enters the hardware mapping.
func (k *Kernel) faultFinish(ctx context.Context, fs *faultState) (done bool, err error) {
	page, firstObj, installed, err := k.faultPageLookup(ctx, fs.obj, fs.offset, fs.wantWrite, fs.share, fs.winLo, fs.winHi)
	if err != nil {
		return true, err
	}
	// The page comes back busy-claimed by this fault (fresh or resident)
	// and stays claimed until the hardware mapping is entered: otherwise
	// the pageout daemon could free it in between and leave a brand-new
	// mapping pointing at a reused frame.

	// pager_data_lock enforcement: the pager may have delivered the data
	// locked (pager_data_provided's lock_value). If the lock forbids this
	// access, send pager_data_unlock and block until the pager grants it;
	// whatever the pager still prohibits is withheld from the hardware
	// mapping so those accesses refault and renegotiate. A COW shadow
	// created above is internal (no pager), so the check no-ops for it —
	// a private copy is never pager-locked.
	pagerProhibits, err := k.checkPagerLock(ctx, fs.obj, fs.offset, fs.access)
	if err != nil {
		k.pageWakeup(page)
		return true, err
	}

	// Revalidate the snapshot and enter the mapping under the read lock:
	// mutators are excluded, so a concurrent Deallocate/Protect cannot
	// interleave its pmap_remove with this pmap_enter.
	m := fs.topMap
	m.mu.RLock()
	prot, wired, needsCopy, ok := fs.revalidate(k)
	if !ok {
		m.mu.RUnlock()
		k.pageWakeup(page)
		return false, nil // the map changed underneath us: retry
	}

	// Decide the hardware protection: reads through needs-copy entries
	// or of pages still owned by a backing object must not be writable,
	// so the eventual write faults and copies.
	enterProt := prot &^ pagerProhibits
	if !fs.wantWrite && (needsCopy || !firstObj) {
		enterProt = enterProt.Intersect(vmtypes.ProtRead | vmtypes.ProtExecute)
	}

	// Enter the mapping in the top map's pmap. A module with range
	// support takes the whole Mach page (its run of hardware pages) in
	// one EnterRange; others get one Enter per hardware page.
	if m.pm != nil {
		re, isRange := m.pm.(pmap.RangeEnterer)
		if isRange && k.hwRatio > 1 {
			buf := k.getPFNBuf(k.hwRatio)
			pfns := (*buf)[:k.hwRatio]
			for i := range pfns {
				pfns[i] = page.pfn + vmtypes.PFN(i)
			}
			re.EnterRange(fs.pageAddr, pfns, enterProt, wired)
			k.putPFNBuf(buf)
		} else {
			hwSize := vmtypes.VA(k.machine.Mem.PageSize())
			for i := 0; i < k.hwRatio; i++ {
				m.pm.Enter(fs.pageAddr+vmtypes.VA(i)*hwSize, page.pfn+vmtypes.PFN(i), enterProt, wired)
			}
		}
		// Superpage-span promotion: when this fault did installation work
		// (never on the resident fast path, which stays zero-overhead) and
		// the mapping is an unrestricted direct one, try to upgrade the
		// whole surrounding promotion granule in one range operation.
		if isRange && installed && fs.sm == nil && !needsCopy && firstObj && pagerProhibits == 0 {
			k.trySpanPromote(re, fs, page, enterProt, wired)
		}
	}
	if fs.sm != nil {
		fs.sm.mu.RUnlock() // acquired by revalidate
	}
	m.mu.RUnlock()

	if fs.wantWrite {
		// Safe without the shard lock: this fault owns the page's busy bit.
		page.dirty = true
	}
	k.releasePage(page, true)
	return true, nil
}

// revalidate checks that the snapshot still describes the map, under the
// top map's read lock. For sharing-map entries it also takes the sharing
// map's read lock and — on success — leaves it held, so the caller's pmap
// enter is still ordered against sharers' copy-on-write marking
// (copyShareEntryCOWLocked write-protects under the sharing map's write
// lock). Fast path: version counters unchanged, snapshot values stand.
// Slow path: re-look-up and verify the entry still resolves to the same
// (object, offset) with compatible attributes; current protection, wiring
// and needs-copy state are returned so the mapping is entered with
// up-to-date values.
func (fs *faultState) revalidate(k *Kernel) (prot vmtypes.Prot, wired bool, needsCopy bool, ok bool) {
	m := fs.topMap
	if fs.sm == nil {
		if m.version.Load() == fs.version {
			return fs.prot, fs.wired, fs.needsCopy, true
		}
		entry, hit := m.lookupEntryLocked(fs.pageAddr)
		if !hit || entry.submap != nil || entry.object != fs.obj ||
			k.truncPage(entry.offset+uint64(fs.pageAddr-entry.start)) != fs.offset ||
			!entry.prot.Allows(fs.access) ||
			(fs.wantWrite && entry.needsCopy) {
			return 0, false, false, false
		}
		// The entry may have been clipped while no lock was held; span
		// promotion must respect the current bounds.
		fs.entryStart = entry.start
		fs.entryEnd = entry.end
		return entry.prot, entry.wired, entry.needsCopy, true
	}

	sm := fs.sm
	sm.mu.RLock()
	if m.version.Load() == fs.version && sm.version.Load() == fs.smVersion {
		return fs.prot, fs.wired, fs.needsCopy, true
	}
	entry, hit := m.lookupEntryLocked(fs.pageAddr)
	if !hit || entry.submap != sm ||
		vmtypes.VA(entry.offset)+(fs.pageAddr-entry.start) != fs.smOff ||
		!entry.prot.Allows(fs.access) {
		sm.mu.RUnlock()
		return 0, false, false, false
	}
	inner, iok := sm.lookupEntryLocked(fs.smOff)
	if !iok || inner.object != fs.obj ||
		k.truncPage(inner.offset+uint64(fs.smOff-inner.start)) != fs.offset ||
		(fs.wantWrite && inner.needsCopy) {
		sm.mu.RUnlock()
		return 0, false, false, false
	}
	return entry.prot, inner.wired, inner.needsCopy, true
}

// shadowEntryLocked replaces entry's object with a new shadow (§3.4).
// The entry map's write lock is held.
func (k *Kernel) shadowEntryLocked(m *Map, entry *MapEntry) {
	if entry.object == nil {
		// Nothing to copy from: plain zero-fill memory needs no shadow.
		entry.needsCopy = false
		return
	}
	shadow := k.shadowObject(entry.object, entry.offset, entry.Span())
	entry.object = shadow
	entry.offset = 0
	entry.needsCopy = false
	// The shadow chain behind the new shadow may now be collapsible.
	k.collapseShadow(shadow)
}

// copyUpPage copies a page found in a backing object into the first
// object (§3.4). fresh=false means a concurrent faulter installed the
// first object's page before us; rewalk and use theirs. Either way the
// claim on the backing page is released here, including on an allocation
// error (out of memory), which propagates to the faulter.
func (k *Kernel) copyUpPage(first *Object, offset uint64, sharedFront bool, page *Page) (*Page, bool, error) {
	newPage, fresh, err := k.allocPage(first, offset)
	if err != nil {
		k.pageWakeup(page)
		return nil, false, err
	}
	if !fresh {
		k.pageWakeup(page)
		return nil, false, nil
	}
	k.copyPage(page, newPage)
	k.stats.CowFaults.Add(1)
	newPage.dirty = true
	if sharedFront {
		// Sharers must not keep reading the superseded page.
		k.removeAllMappings(page)
	}
	k.pageWakeup(page)
	// The new page hides the backing page for this object chain; other
	// chains may still share the old page, so it simply stays where it
	// is.
	return newPage, true, nil
}

// faultPageLookup walks the shadow chain from obj looking for the page at
// offset (§3.4: "the system will find the page in some object in the list
// and make a copy, if necessary"). It returns the page to map and whether
// it belongs to the first object. For a write, a page found in a backing
// object is copied into the first object; for a read it is mapped
// read-only in place.
//
// sharedFront is true when the first object belongs to a sharing map: in
// that case every sharer resolves through the same shadow, so after a copy
// the backing page's existing hardware mappings are stale for the sharers
// and must be removed (they refault and find the shadow's page; snapshot
// holders refault and still reach the original).
//
// Every page this function returns is busy-claimed by the caller (claimed
// by claimPageOrFlight on a resident hit, freshly allocated otherwise); the
// caller releases the claim with pageWakeup once the mapping is entered.
//
// The walk runs with no map lock held and needs no guard against a
// concurrent collapseShadow transiting pages between chain levels: the
// caller holds its own reference on obj (taken under the map lock when the
// entry was snapshotted), and each deeper level is referenced by its
// front's shadow pointer. collapseShadow only drains a backing object
// whose sole reference is the collapsing front, so every object this walk
// can reach has refs >= 2 from any collapser's point of view and the
// collapse aborts before touching it.
// [winLo, winHi) is the entry's window in obj's byte coordinates; it is
// translated down the chain alongside the offset and bounds fault-in
// clustering. The returned installed flag reports whether this fault did
// installation work (pager fill, copy-up, zero fill) as opposed to a pure
// resident fast-path hit — the caller uses it to gate span promotion.
func (k *Kernel) faultPageLookup(ctx context.Context, obj *Object, offset uint64, wantWrite, sharedFront bool, winLo, winHi uint64) (*Page, bool, bool, error) {
	first := obj
	installed := false

restart:
	for {
		cur := first
		curOffset := offset
		lo, hi := winLo, winHi
		depth := 0
		for {
			depth++
			if depth > 1000 {
				panic(fmt.Sprintf("vm_fault: runaway shadow chain at depth %d", depth))
			}
			page, flight := k.claimPageOrFlight(cur, curOffset)
			if page != nil {
				if cur == first {
					k.stats.ReactivateHits.Add(1)
					return page, true, installed, nil
				}
				// Found in a backing object.
				if !wantWrite {
					return page, false, installed, nil
				}
				newPage, ok, err := k.copyUpPage(first, offset, sharedFront, page)
				if err != nil {
					return nil, false, installed, err
				}
				if !ok {
					continue restart
				}
				installed = true
				return newPage, true, installed, nil
			}

			// A busy absent page is owned by another faulter's pager
			// conversation: join its flight and share the outcome instead
			// of issuing a duplicate request. After a definitive "no data"
			// (or a zero-fill degradation) this level's pager must not be
			// re-asked.
			skipPager := false
			if flight != nil {
				retry, err := k.resolveFlight(ctx, cur, curOffset, flight)
				if err != nil {
					return nil, false, installed, err
				}
				if retry {
					installed = true
					continue restart
				}
				skipPager = true
			}

			cur.mu.Lock()
			pager := cur.pager
			shadow := cur.shadow
			shadowOffset := cur.shadowOffset
			cur.mu.Unlock()
			if pager != nil && !skipPager {
				retry, err := k.pageIn(ctx, cur, curOffset, pager, lo, hi)
				if err != nil {
					return nil, false, installed, err
				}
				if retry {
					installed = true
					continue restart
				}
				// Pager has no data: fall through to the shadow, or
				// zero-fill at the end of the chain.
			}

			if shadow == nil {
				// End of the chain: zero fill in the first object
				// ("memory with no pager is automatically zero filled").
				page, fresh, err := k.allocPage(first, offset)
				if err != nil {
					return nil, false, installed, err
				}
				if !fresh {
					continue restart
				}
				k.zeroPage(page)
				k.stats.ZeroFillFaults.Add(1)
				if wantWrite {
					page.dirty = true
				}
				installed = true
				return page, true, installed, nil
			}
			curOffset += shadowOffset
			lo += shadowOffset
			hi += shadowOffset
			cur = shadow
		}
	}
}

// tryClaimResident busy-claims the resident page at (obj, offset) without
// blocking: nil if no page is resident or it is busy or absent. Used by
// span promotion, which must never wait behind another fault.
func (k *Kernel) tryClaimResident(obj *Object, offset uint64) *Page {
	h := pageHash(obj, offset)
	s := k.shardOf(h)
	s.mu.Lock()
	p := s.lookup(h, obj, offset)
	if p == nil || p.busy || p.absent {
		s.mu.Unlock()
		return nil
	}
	p.busy = true
	s.mu.Unlock()
	return p
}

// trySpanPromote upgrades the fault's mapping to the module's whole
// promotion granule (vax: one page-table chunk; sun3: one PMEG segment)
// when every Mach page of the surrounding span is already resident in the
// first object — the dense-run case clustered fault-in produces. One
// EnterRange covering the full span makes the module's promotion invariant
// (all entries valid, uniform protection) hold by construction.
//
// Called under the top map's read lock with the faulting page
// busy-claimed. Every other span page is try-claimed non-blocking; any
// obstacle (absent, busy, not resident) aborts the attempt, so promotion
// can never deadlock or stall the fault it rides on. Demotion is the
// module's job: any later Remove/Protect/Collect that breaks the span's
// uniformity downgrades it to per-page mappings.
func (k *Kernel) trySpanPromote(re pmap.RangeEnterer, fs *faultState, page *Page, enterProt vmtypes.Prot, wired bool) {
	span := re.SuperSpan()
	if span <= k.pageSize || span%k.pageSize != 0 || span&(span-1) != 0 {
		return
	}
	spanBase := fs.pageAddr & ^vmtypes.VA(span-1)
	spanEnd := spanBase + vmtypes.VA(span)
	if spanBase < fs.entryStart || spanEnd > fs.entryEnd {
		return
	}
	if re.SuperActive(fs.pageAddr) {
		return
	}
	if _, locking := fs.obj.Pager().(LockingPager); locking {
		// Per-offset pager locks can restrict individual pages; a span
		// mapping could not honor them.
		return
	}

	nPages := int(span / k.pageSize)
	offBase := fs.offset - uint64(fs.pageAddr-spanBase)
	claimedBuf := k.getClaimBuf(nPages)
	claimed := (*claimedBuf)[:nPages]
	ok := true
	for j := 0; j < nPages && ok; j++ {
		off := offBase + uint64(j)*k.pageSize
		if off == fs.offset {
			claimed[j] = page
			continue
		}
		if claimed[j] = k.tryClaimResident(fs.obj, off); claimed[j] == nil {
			ok = false
		}
	}
	if ok {
		pfnBuf := k.getPFNBuf(nPages * k.hwRatio)
		pfns := (*pfnBuf)[:nPages*k.hwRatio]
		for j, p := range claimed {
			for i := 0; i < k.hwRatio; i++ {
				pfns[j*k.hwRatio+i] = p.pfn + vmtypes.PFN(i)
			}
		}
		re.EnterRange(spanBase, pfns, enterProt, wired)
		k.putPFNBuf(pfnBuf)
		k.stats.SpanPromotions.Add(1)
	}
	for _, p := range claimed {
		if p == nil || p == page {
			continue // the faulting page stays claimed by faultFinish
		}
		k.releasePage(p, ok) // mapped into hardware: it is in use now
	}
	k.putClaimBuf(claimedBuf)
}
