package core

import (
	"sort"
	"time"

	"machvm/internal/trace"
	"machvm/internal/vmtypes"
)

// The paging daemon (§3.1) maintains the allocation queues: it balances
// the active and inactive queues, reclaims clean inactive pages, and
// writes dirty ones back to their pagers. Before pageout I/O the mapping
// is first removed from every pmap and the deferred TLB flushes are forced
// to completion (pmap_update) — strategy (2) of §5.2: "the system first
// removes the mapping from any primary memory mapping data structures and
// then initiates pageout only after all referencing TLBs have been
// flushed."

// pageoutBatch is the number of claimed victims whose pmap removals are
// amortized over one pmap_update before their I/O and frees proceed.
const pageoutBatch = 32

// scanFlight is one in-flight pageout scan. Scans are single-flight: a
// requester that finds one already running waits on done and shares its
// result instead of scanning concurrently (redundant scans over the same
// inactive queue reclaim nothing extra and can starve each other into
// spurious memory-exhaustion verdicts).
type scanFlight struct {
	done  chan struct{}
	freed int
}

// PageoutScan runs one pass of the paging daemon synchronously and returns
// the number of pages freed. It is also invoked from the allocator when
// free memory is exhausted. Concurrent calls coalesce into the scan
// already in flight and return its result.
func (k *Kernel) PageoutScan() int {
	t := k.TraceOp()
	k.scanMu.Lock()
	f := k.scanFlight
	if f != nil {
		k.scanMu.Unlock()
		k.stats.PageoutScanJoins.Add(1)
		<-f.done
	} else {
		f = &scanFlight{done: make(chan struct{})}
		k.scanFlight = f
		k.scanMu.Unlock()

		f.freed = k.pageoutScan()

		k.scanMu.Lock()
		k.scanFlight = nil
		k.scanMu.Unlock()
		close(f.done)
	}
	if t != nil {
		t.End(trace.OpScan, trace.Event{Ret: uint64(f.freed)}, nil)
	}
	return f.freed
}

// pageoutScan is the scan body (the single-flight leader runs it). Reclaim
// is two-phase per batch: claim up to pageoutBatch victims (revalidate,
// set busy, remove every hardware mapping), force ONE pmap_update for the
// whole batch, and only then start writing data out and freeing frames.
// The §5.2 invariant — pageout I/O begins only after every referencing TLB
// has been flushed — therefore holds for every page of the batch, while
// the flush cost stays amortized.
func (k *Kernel) pageoutScan() int {
	// Rebalance: keep roughly a third of non-free pages inactive so the
	// daemon has candidates.
	inactiveCount := k.InactiveCount()
	k.active.mu.Lock()
	wantInactive := (k.active.q.count + inactiveCount) / 3
	var toDeactivate []*Page
	for p := k.active.q.head; p != nil && inactiveCount+len(toDeactivate) < wantInactive; p = p.qNext {
		toDeactivate = append(toDeactivate, p)
	}
	k.active.mu.Unlock()
	for _, p := range toDeactivate {
		k.deactivatePage(p)
	}

	// Snapshot the inactive queue. The snapshot is advisory: pages can be
	// freed, reallocated to other objects, rewired or marked busy while
	// the daemon works through it, so claimPageout revalidates every
	// candidate under its shard lock before committing to pageout.
	k.inactive.mu.Lock()
	candidates := make([]*Page, 0, k.inactive.q.count)
	for p := k.inactive.q.head; p != nil; p = p.qNext {
		candidates = append(candidates, p)
	}
	k.inactive.mu.Unlock()

	freed := 0
	batch := make([]pageoutVictim, 0, pageoutBatch)
	flush := func() {
		if len(batch) == 0 {
			return
		}
		// Strategy (2) of §5.2: every victim's mappings are gone from
		// the pmaps; force the deferred per-CPU invalidations to
		// completion before any victim's frame is written out or reused.
		k.mod.Update()
		freed += k.finishPageoutBatch(batch)
		batch = batch[:0]
	}
	for _, p := range candidates {
		// Claimed-but-unflushed victims are as good as freed for the
		// watermark.
		if k.FreeCount()+len(batch) >= k.freeTarget {
			break
		}
		if k.isReferenced(p) {
			// Recently used: give it another chance.
			k.activatePage(p)
			k.stats.ReactivateHits.Add(1)
			continue
		}
		if v, ok := k.claimPageout(p); ok {
			batch = append(batch, v)
			if len(batch) >= pageoutBatch {
				flush()
			}
		}
	}
	flush()
	// The scan's outcome is an observation: replay regenerates the scan
	// (from an OpScan or from allocator pressure inside another op) and
	// must reclaim exactly as much at exactly the same virtual time.
	k.traceObserve(trace.EvScan, trace.Event{Ret: uint64(freed)})
	return freed
}

// pageoutVictim is one claimed page between its unmapping and its I/O or
// free: busy (so faulters wait, terminators block and collapses abort) but
// not yet flushed from every TLB.
type pageoutVictim struct {
	p      *Page
	obj    *Object
	offset uint64
	dirty  bool
}

// claimPageout revalidates one advisory candidate and commits it to
// pageout: busy is set and every hardware mapping removed. With the
// deferred shootdown strategy the invalidations still sit in per-CPU
// queues afterwards — the caller batches claims and issues one pmap_update
// before any victim's data is written out or its frame freed (§5.2).
// Candidates arrive from a lock-free queue snapshot: identity, busy,
// wiring and queue membership may all have changed since the snapshot, so
// everything is revalidated under the shard lock first.
func (k *Kernel) claimPageout(p *Page) (pageoutVictim, bool) {
	obj, _, _, ok := p.identity()
	if !ok {
		k.stats.PageoutSkips.Add(1)
		return pageoutVictim{}, false
	}
	// Lock the object without violating the object→shard lock order:
	// try-lock, and skip the page on contention (as Mach's daemon does).
	if !obj.mu.TryLock() {
		k.stats.PageoutSkips.Add(1)
		return pageoutVictim{}, false
	}
	defer obj.mu.Unlock()

	s, cur, curOff := k.lockPage(p)
	if s == nil {
		k.stats.PageoutSkips.Add(1)
		return pageoutVictim{}, false
	}
	// Revalidate after the race window.
	if cur != obj || p.busy || p.wireCount.Load() > 0 || p.queue != queueInactive {
		s.mu.Unlock()
		k.stats.PageoutSkips.Add(1)
		return pageoutVictim{}, false
	}
	p.busy = true
	v := pageoutVictim{p: p, obj: obj, offset: curOff, dirty: p.dirty}
	s.mu.Unlock()

	k.removeAllMappings(p)
	k.traceObserve(trace.EvReclaim, trace.Event{
		Obj: obj.ID(), Addr: curOff, Flag: v.dirty,
	})
	return v, true
}

// finishPageoutBatch disposes of a whole claimed batch after its
// pmap_update: clean victims are freed outright, dirty ones are coalesced
// into maximal runs of consecutive offsets within the same object and each
// run goes to the pager as ONE DataWrite — the pageout mirror of clustered
// fault-in. Sequentially dirtied memory therefore costs one pager
// conversation (one disk latency) per run instead of one per page.
// Returns the number of frames actually freed.
func (k *Kernel) finishPageoutBatch(batch []pageoutVictim) int {
	freed := 0
	var dirtyByObj map[*Object][]pageoutVictim
	for _, v := range batch {
		if v.dirty || k.isModified(v.p) {
			if dirtyByObj == nil {
				dirtyByObj = make(map[*Object][]pageoutVictim)
			}
			dirtyByObj[v.obj] = append(dirtyByObj[v.obj], v)
		} else {
			k.finishCleanVictim(v)
			freed++
		}
	}
	// Drain objects in stable (creation-order) ID order, never Go map
	// iteration order: the order of DataWrite conversations is externally
	// visible — trace event order, per-write virtual-clock timestamps,
	// which write a failing pager rejects first — and must be identical
	// across record and replay runs.
	objs := make([]*Object, 0, len(dirtyByObj))
	for obj := range dirtyByObj {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID() < objs[j].ID() })
	for _, obj := range objs {
		vs := dirtyByObj[obj]
		if _, locking := obj.Pager().(LockingPager); locking {
			// External memory managers negotiate per-offset page locks
			// and the message protocol delivers them one page at a time;
			// keep their writes single-page, mirroring fault-in.
			for i := range vs {
				freed += k.finishPageoutRun(vs[i : i+1])
			}
			continue
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i].offset < vs[j].offset })
		runStart := 0
		for i := 1; i <= len(vs); i++ {
			if i == len(vs) || vs[i].offset != vs[i-1].offset+k.pageSize {
				freed += k.finishPageoutRun(vs[runStart:i])
				runStart = i
			}
		}
	}
	return freed
}

// finishCleanVictim frees one clean claimed victim. The batch flush
// (pmap_update) has already run, so no CPU can still hold a stale
// translation to this frame.
func (k *Kernel) finishCleanVictim(v pageoutVictim) {
	v.obj.mu.Lock()
	k.freePageObjLocked(v.p)
	v.obj.mu.Unlock()
}

// finishPageoutRun writes one maximal run of dirty victims — consecutive
// offsets in one object — to the pager as a single DataWrite and frees the
// frames. Taking the object lock blocking is safe here: nothing is held,
// and every holder of obj.mu that waits on a busy page releases the lock
// first.
//
// A DataWrite failure never loses data: every page of the run stays dirty
// and resident and is reactivated for a later pass. With FallbackSwap the
// object is permanently retargeted to the default pager and the write
// retried there, so dirty pages are not stranded behind a dead manager.
func (k *Kernel) finishPageoutRun(run []pageoutVictim) int {
	obj := run[0].obj
	n := len(run)
	pgsz := int(k.pageSize)
	obj.mu.Lock()
	pager := obj.pager
	if pager == nil {
		// Internal object: the default pager takes the data
		// ("page-out is done to a default pager").
		pager = k.swap
		obj.pager = pager
		obj.mu.Unlock()
		pager.Init(obj)
		obj.mu.Lock()
	}
	buf := k.getRunBuf(n * pgsz)
	data := *buf
	for i, v := range run {
		k.snapshotPage(v.p, data[i*pgsz:(i+1)*pgsz])
	}
	obj.pagingInProgress++
	obj.mu.Unlock()
	err := k.pagerWriteData(pager, obj, run[0].offset, data)
	if err != nil && obj.PagerFallback() == FallbackSwap && pager != k.swap {
		// Degrade: hand the object to the default pager for good and
		// land the data there. Tell the failed pager the object is gone so
		// a tiered pager (ztier wrapping the dead backing store) purges its
		// compressed blobs instead of stranding them keyed by a retargeted
		// object. Terminate is deliberately the full pager teardown, not
		// just tier bookkeeping: it destroys whatever the failed pager
		// still stored for the object (ztier pool purge, netpager remote
		// store drop). The retarget is permanent — nothing will ever read
		// from the old pager again — so pages whose only copy lived there
		// are lost either way; destroying the store makes that explicit
		// and frees its memory rather than leaking an unreachable copy.
		k.stats.PagerFallbacks.Add(1)
		obj.mu.Lock()
		obj.pager = k.swap
		obj.mu.Unlock()
		pager.Terminate(obj)
		k.swap.Init(obj)
		err = k.pagerWriteData(k.swap, obj, run[0].offset, data)
	}
	obj.mu.Lock()
	obj.pagingInProgress--
	k.putRunBuf(buf)
	if err != nil {
		// Keep the pages and give them another chance on a later scan;
		// the pager may recover. The hardware modify bits were consumed
		// when the mappings were removed, so pin dirtiness in the
		// machine-independent structure (we still own the busy bits).
		k.stats.PageoutWriteFails.Add(uint64(n))
		for _, v := range run {
			v.p.dirty = true
		}
		obj.mu.Unlock()
		for _, v := range run {
			k.releasePage(v.p, true)
		}
		return 0
	}
	k.stats.Pageouts.Add(uint64(n))
	k.stats.PageoutRuns.Add(1)
	k.stats.PageoutRunPages.Add(uint64(n))
	obj.notePageouts(k, n)
	for _, v := range run {
		k.clearModify(v.p)
		k.freePageObjLocked(v.p)
	}
	obj.mu.Unlock()
	return n
}

// wakePageoutDaemon pokes the daemon without blocking; a full buffer means
// a wakeup is already pending.
func (k *Kernel) wakePageoutDaemon() {
	select {
	case k.pageoutWake <- struct{}{}:
		k.stats.PageoutWakes.Add(1)
	default:
	}
}

// StartPageoutDaemon runs the paging daemon in the background until stop
// is closed. The daemon wakes on demand — allocPage pokes it whenever free
// memory dips below freeMin — with the ticker as a fallback for rebalance
// and for wakeups that raced a full buffer. Tests and benchmarks usually
// call PageoutScan directly for determinism; long-running examples use the
// daemon.
func (k *Kernel) StartPageoutDaemon(stop <-chan struct{}, interval time.Duration) {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-k.pageoutWake:
				k.PageoutScan()
			case <-ticker.C:
				if k.FreeCount() < k.freeMin {
					k.PageoutScan()
				}
			}
		}
	}()
}

// Wire faults in and wires every page of [addr, addr+size) in the map so
// pageout cannot touch it (used for kernel-critical buffers; the paper's
// kernel mappings "must always be kept complete and accurate").
func (m *Map) Wire(addr vmtypes.VA, size uint64) (err error) {
	k := m.k
	if t := k.TraceOp(); t != nil {
		defer t.End(trace.OpWire, trace.Event{Map: m.id, Addr: uint64(addr), Size: size}, &err)
	}
	size = k.roundPage(size)
	if err := m.checkRange(addr, size); err != nil {
		return err
	}
	m.mu.Lock()
	e, hit := m.lookupEntryLocked(addr)
	if !hit {
		m.mu.Unlock()
		return ErrInvalidAddress
	}
	m.clipStartLocked(e, addr)
	end := addr + vmtypes.VA(size)
	for e != nil && e.start < end {
		m.clipEndLocked(e, end)
		e.wired = true
		e = e.next
	}
	m.bumpVersion() // faults must pick up the wired attribute
	m.mu.Unlock()

	// Touch every page so it is resident and mapped wired.
	for va := addr; va < addr+vmtypes.VA(size); va += vmtypes.VA(k.pageSize) {
		if err := k.Fault(m, va, vmtypes.ProtRead); err != nil {
			return err
		}
		if p := m.residentPageAt(va); p != nil {
			k.wirePage(p)
		}
	}
	return nil
}

// Unwire releases wiring on [addr, addr+size).
func (m *Map) Unwire(addr vmtypes.VA, size uint64) (err error) {
	k := m.k
	if t := k.TraceOp(); t != nil {
		defer t.End(trace.OpUnwire, trace.Event{Map: m.id, Addr: uint64(addr), Size: size}, &err)
	}
	size = k.roundPage(size)
	if err := m.checkRange(addr, size); err != nil {
		return err
	}
	for va := addr; va < addr+vmtypes.VA(size); va += vmtypes.VA(k.pageSize) {
		if p := m.residentPageAt(va); p != nil {
			k.unwirePage(p)
		}
	}
	m.mu.Lock()
	e, hit := m.lookupEntryLocked(addr)
	if hit {
		m.clipStartLocked(e, addr)
		end := addr + vmtypes.VA(size)
		for e != nil && e.start < end {
			m.clipEndLocked(e, end)
			e.wired = false
			e = e.next
		}
		m.bumpVersion()
	}
	m.mu.Unlock()
	return nil
}

// residentPageAt resolves the resident page backing va, if any.
func (m *Map) residentPageAt(va vmtypes.VA) *Page {
	k := m.k
	pageAddr := vmtypes.VA(k.truncPage(uint64(va)))
	m.mu.RLock()
	defer m.mu.RUnlock()
	entry, hit := m.lookupEntryLocked(pageAddr)
	if !hit {
		return nil
	}
	obj := entry.object
	offset := entry.offset + uint64(pageAddr-entry.start)
	if entry.submap != nil {
		sm := entry.submap
		smOff := vmtypes.VA(entry.offset) + (pageAddr - entry.start)
		sm.mu.RLock()
		inner, ok := sm.lookupEntryLocked(smOff)
		if !ok || inner.object == nil {
			sm.mu.RUnlock()
			return nil
		}
		obj = inner.object
		offset = inner.offset + uint64(smOff-inner.start)
		sm.mu.RUnlock()
	}
	if obj == nil {
		return nil
	}
	// Walk the shadow chain without side effects.
	curOffset := k.truncPage(offset)
	for cur := obj; cur != nil; {
		if p := k.lookupPage(cur, curOffset); p != nil {
			return p
		}
		cur.mu.Lock()
		next := cur.shadow
		curOffset += cur.shadowOffset
		cur.mu.Unlock()
		cur = next
	}
	return nil
}
