package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"machvm/internal/vmtypes"
)

// ErrNoMemory is returned when physical memory is exhausted and repeated
// pageout scans reclaim nothing (every page wired or busy). It surfaces
// through Fault to the faulting caller instead of panicking the kernel.
var ErrNoMemory = errors.New("vm: out of physical memory and nothing is reclaimable")

// Page is one entry of the resident page table (§3.1). Physical memory is
// treated primarily as a cache for the contents of virtual memory objects;
// each page entry may simultaneously be linked into a memory-object list,
// a memory-allocation queue, and an object/offset hash bucket.
//
// Locking (DESIGN.md §7): the resident page table is lock-striped. A
// page's state fields (busy, dirty, precious, wireCount, queue id) are
// guarded by the shard lock of its current identity; the object list links
// by the owning object's lock; the queue links by the owning queue's lock.
// A free page has no identity and belongs exclusively to the thread that
// popped it from the free list.
type Page struct {
	// pfn is the first hardware frame of this Mach page.
	pfn vmtypes.PFN

	// The page's (object, offset) identity — byte offsets are used
	// throughout to avoid linking the implementation to a notion of page
	// size. identObj is nil while the page is free or in transit between
	// objects. The pair is published under a seqlock (identSeq odd while
	// a change is in flight, bumped to a new even value after) so that
	// lock-free holders of a *Page (the pageout daemon's queue
	// snapshots) can read a consistent snapshot, locate the owning
	// shard, lock it, and revalidate by re-reading identSeq: identity
	// changes happen only under the owning shard's lock, and identSeq is
	// monotonic, so an unchanged sequence number proves the identity is
	// stable until that lock is released. The previous design published
	// a freshly allocated immutable pair per identity change; the
	// seqlock keeps the same protocol with zero allocation, which is
	// what the zero-fill fault path needs.
	identObj atomic.Pointer[Object]
	identOff atomic.Uint64
	identSeq atomic.Uint64

	// Memory-object list links, guarded by the owning object's mutex.
	objPrev, objNext *Page

	// hashNext chains the pages of one object/offset hash bucket (§3.1),
	// guarded by the shard lock of the page's identity.
	hashNext *Page

	// flight names the pager conversation that owns this busy absent
	// page, for a faulter that finds the page to join. The flight's leader
	// sets it (owning the busy bit, not the shard lock — hence atomic) and
	// clears it before any page of the flight is released.
	flight atomic.Pointer[pagerFlight]

	// queue names the allocation queue holding the page. Transitions are
	// serialized by the shard lock of the page's identity (free-list
	// transitions instead rely on the exclusive ownership of the thread
	// that popped or unlinked the page); the intrusive links are guarded
	// by the owning queue's own lock.
	queue        int
	qPrev, qNext *Page

	// wireCount pins the page in memory while > 0. Mutated under the
	// shard lock; atomic so statistics can sample it without locking.
	wireCount atomic.Int32

	// mag is the index of the free-page magazine this page drains to: the
	// shard index of its current (or, once freed, most recent) identity.
	// Written only by the page's exclusive owner (insertPageLocked under
	// the shard lock, grabFreePage on a just-popped page).
	mag uint8

	// busy marks a page with I/O or fill in progress; faulters wait on a
	// per-key wait channel in the shard. Guarded by the shard lock. The
	// thread that set busy (the owner) may write absent/dirty directly:
	// everyone else reads them only after taking the shard lock and
	// seeing busy clear, which the owner also does under the lock.
	busy bool
	// absent marks a busy page whose data has not yet arrived from the
	// pager.
	absent bool
	// dirty means the page has data its object's pager has not seen.
	dirty bool
	// precious means the pager wants the data back even if clean.
	precious bool
}

// identity returns a consistent snapshot of the page's (object, offset)
// identity plus the seqlock value it was read at; ok=false means the
// page has no identity (free or in transit). Safe with no locks held —
// an in-flight change (odd or moved sequence) is simply re-read.
func (p *Page) identity() (obj *Object, off uint64, seq uint64, ok bool) {
	for {
		seq = p.identSeq.Load()
		if seq&1 == 0 {
			obj = p.identObj.Load()
			off = p.identOff.Load()
			if p.identSeq.Load() == seq {
				return obj, off, seq, obj != nil
			}
		}
	}
}

// setIdentity publishes a new identity. The caller holds the shard lock
// the identity hashes to, which serializes all writers for this page.
func (p *Page) setIdentity(obj *Object, off uint64) {
	p.identSeq.Add(1) // odd: change in progress
	p.identObj.Store(obj)
	p.identOff.Store(off)
	p.identSeq.Add(1) // even again: stable
}

// clearIdentity retires the page's identity (same locking as setIdentity).
func (p *Page) clearIdentity() {
	p.identSeq.Add(1)
	p.identObj.Store(nil)
	p.identOff.Store(0)
	p.identSeq.Add(1)
}

// PFN returns the page's first hardware frame number.
func (p *Page) PFN() vmtypes.PFN { return p.pfn }

// Offset returns the page's byte offset within its object (0 when free).
func (p *Page) Offset() uint64 {
	if _, off, _, ok := p.identity(); ok {
		return off
	}
	return 0
}

// Queue identifiers. queueFree is the global depot; queueMagazine marks a
// free page cached in one of the per-shard magazines.
const (
	queueNone = iota
	queueFree
	queueMagazine
	queueActive
	queueInactive
)

type pageKey struct {
	obj    *Object
	offset uint64
}

// numPageShards stripes the object/offset hash and the page-state locks so
// faults on unrelated objects never contend.
const (
	pageShardBits = 6
	numPageShards = 1 << pageShardBits
)

// pageShard is one stripe of the resident page table: a slice of the
// object/offset hash (§3.1: "fast lookup of a physical page associated
// with an object/offset at the time of a page fault") plus per-key wait
// channels for busy pages, so a fault blocked on one busy page never wakes
// faulters waiting on an unrelated one. The hash is the paper's: buckets
// chained through the page entries themselves (Page.hashNext), a power of
// two of them sized once at boot for a load factor of at most ½, so a
// lookup, insert or remove never allocates and never rehashes.
type pageShard struct {
	mu      sync.Mutex
	buckets []*Page
	waiters map[pageKey]chan struct{}
}

// pageHash hashes an (object, offset) identity. Its low pageShardBits pick
// the shard (and the free-page magazine); the bits above pick the bucket.
func pageHash(obj *Object, offset uint64) uint64 {
	h := obj.generation.Load() * 0x9e3779b97f4a7c15
	h ^= (offset >> 12) * 0xbf58476d1ce4e5b9
	return h ^ h>>29
}

// bucket returns the head of the chain h falls in.
func (s *pageShard) bucket(h uint64) **Page {
	return &s.buckets[(h>>pageShardBits)&uint64(len(s.buckets)-1)]
}

// lookup returns the page hashed at (obj, offset), h being their pageHash.
// The shard lock must be held, as for insert and remove.
func (s *pageShard) lookup(h uint64, obj *Object, offset uint64) *Page {
	for p := *s.bucket(h); p != nil; p = p.hashNext {
		if p.identObj.Load() == obj && p.identOff.Load() == offset {
			return p
		}
	}
	return nil
}

// insert links p, whose identity hashes to h, at the head of its bucket.
func (s *pageShard) insert(h uint64, p *Page) {
	b := s.bucket(h)
	p.hashNext = *b
	*b = p
}

// remove unlinks p from the bucket h names.
func (s *pageShard) remove(h uint64, p *Page) {
	for b := s.bucket(h); *b != nil; b = &(*b).hashNext {
		if *b == p {
			*b, p.hashNext = p.hashNext, nil
			return
		}
	}
}

// waitChan returns the channel that will be closed when the page at key is
// woken (busy cleared or page removed). The shard lock must be held.
func (s *pageShard) waitChan(key pageKey) chan struct{} {
	ch := s.waiters[key]
	if ch == nil {
		ch = make(chan struct{})
		s.waiters[key] = ch
	}
	return ch
}

// wake closes and forgets the wait channel for key, releasing every waiter
// on that page only. The shard lock must be held.
func (s *pageShard) wake(key pageKey) {
	if ch := s.waiters[key]; ch != nil {
		delete(s.waiters, key)
		close(ch)
	}
}

// shardOf returns the shard owning the identity that hashes to h; the
// free-page magazine with the same index serves allocations for it.
func (k *Kernel) shardOf(h uint64) *pageShard { return &k.shards[h&(numPageShards-1)] }

// shardFor returns the shard owning (obj, offset).
func (k *Kernel) shardFor(obj *Object, offset uint64) *pageShard {
	return k.shardOf(pageHash(obj, offset))
}

// lockPage locks the shard guarding p's current identity and returns it
// with the identity, or a nil shard for a page with no identity (free or
// in transit). While the returned lock is held the identity cannot
// change, because identity changes require the same lock; an unchanged
// identSeq after acquiring it proves the snapshot is still current (the
// sequence is monotonic, so ABA is impossible).
func (k *Kernel) lockPage(p *Page) (*pageShard, *Object, uint64) {
	for {
		obj, off, seq, ok := p.identity()
		if !ok {
			return nil, nil, 0
		}
		s := k.shardFor(obj, off)
		s.mu.Lock()
		if p.identSeq.Load() == seq {
			return s, obj, off
		}
		// The page changed identity while we chased its shard.
		s.mu.Unlock()
		k.stats.ShardRetries.Add(1)
	}
}

// pageQueue is an intrusive FIFO of pages.
type pageQueue struct {
	head, tail *Page
	count      int
}

func (q *pageQueue) pushBack(p *Page) {
	p.qPrev = q.tail
	p.qNext = nil
	if q.tail != nil {
		q.tail.qNext = p
	} else {
		q.head = p
	}
	q.tail = p
	q.count++
}

func (q *pageQueue) remove(p *Page) {
	if p.qPrev != nil {
		p.qPrev.qNext = p.qNext
	} else {
		q.head = p.qNext
	}
	if p.qNext != nil {
		p.qNext.qPrev = p.qPrev
	} else {
		q.tail = p.qPrev
	}
	p.qPrev, p.qNext = nil, nil
	q.count--
}

func (q *pageQueue) popFront() *Page {
	p := q.head
	if p != nil {
		q.remove(p)
	}
	return p
}

// lockedQueue is an allocation queue with its own lock — free, active and
// inactive no longer share one mutex.
type lockedQueue struct {
	mu sync.Mutex
	q  pageQueue
}

// The free list is a magazine layer (DESIGN.md §7): one free-page cache
// per page shard over a global depot. An allocation for (obj, offset)
// draws from the magazine with the object's shard index and a freed page
// returns to the magazine of its last identity, so faults on unrelated
// objects never meet on a free-list lock; the depot is touched only for
// batched magazineExchange-page refills and drains, which keeps its lock
// off the fault path entirely. The atomic freeCount spans magazines +
// depot, so the freeMin/freeTarget watermarks see every free page no
// matter where it is cached.
const (
	// magazineExchange is the number of pages moved per magazine↔depot
	// exchange.
	magazineExchange = 32
	// magazineCap bounds a magazine so free memory cannot silt up in one
	// shard's cache; beyond it a batch drains back to the depot.
	magazineCap = 2 * magazineExchange
)

// pageMagazine is one per-shard free-page cache. The pad keeps
// neighbouring magazines off one cache line.
type pageMagazine struct {
	mu sync.Mutex
	q  pageQueue
	_  [64]byte
}

// magazinePop takes one free page out of magazine mag, refilling from the
// depot in a batch when the magazine is dry and stealing from sibling
// magazines when the depot is dry too. It returns nil only when no free
// page exists anywhere. The page comes back exclusively owned, with
// queue already set to queueNone.
func (k *Kernel) magazinePop(mag int) *Page {
	m := &k.magazines[mag]
	m.mu.Lock()
	if p := m.q.popFront(); p != nil {
		p.queue = queueNone
		m.mu.Unlock()
		k.stats.MagazineHits.Add(1)
		return p
	}
	// Refill: move a batch from the depot, keeping the first page for the
	// caller. Lock order: magazine → depot.
	k.depot.mu.Lock()
	p := k.depot.q.popFront()
	if p != nil {
		p.queue = queueNone
		for i := 1; i < magazineExchange; i++ {
			r := k.depot.q.popFront()
			if r == nil {
				break
			}
			r.queue = queueMagazine
			r.mag = uint8(mag)
			m.q.pushBack(r)
		}
	}
	k.depot.mu.Unlock()
	m.mu.Unlock()
	if p != nil {
		k.stats.DepotRefills.Add(1)
		return p
	}
	// Memory pressure: free pages may still sit in other shards'
	// magazines (freeCount counts them). Never hold two magazine locks.
	for i := 1; i < numPageShards; i++ {
		s := &k.magazines[(mag+i)&(numPageShards-1)]
		s.mu.Lock()
		p := s.q.popFront()
		if p != nil {
			p.queue = queueNone
		}
		s.mu.Unlock()
		if p != nil {
			k.stats.MagazineSteals.Add(1)
			return p
		}
	}
	return nil
}

// magazinePush returns an exclusively-owned free page to its magazine,
// draining a batch to the depot when the cache overfills. The caller
// maintains the free count.
func (k *Kernel) magazinePush(p *Page) {
	m := &k.magazines[p.mag]
	m.mu.Lock()
	p.queue = queueMagazine
	m.q.pushBack(p)
	if m.q.count > magazineCap {
		// Lock order: magazine → depot.
		k.depot.mu.Lock()
		for i := 0; i < magazineExchange; i++ {
			d := m.q.popFront()
			d.queue = queueFree
			k.depot.q.pushBack(d)
		}
		k.depot.mu.Unlock()
		k.stats.DepotDrains.Add(1)
	}
	m.mu.Unlock()
}

// queueFor returns the pageable queue with the given id. The free layer
// (magazines + depot) is deliberately excluded: free-list membership is
// managed only by grabFreePage, releaseFreePage and detachAndFree, which
// also maintain the atomic free count.
func (k *Kernel) queueFor(id int) *lockedQueue {
	switch id {
	case queueActive:
		return &k.active
	case queueInactive:
		return &k.inactive
	default:
		return nil
	}
}

// setQueue moves p between the pageable queues (never to or from the free
// list). The caller must hold p's shard lock, or own the page exclusively,
// so that transitions for one page never race; only the queue's own lock
// guards the intrusive list, and a move to the back of the queue the page is
// already on takes it once.
func (k *Kernel) setQueue(p *Page, id int) {
	from, to := k.queueFor(p.queue), k.queueFor(id)
	p.queue = id
	if from != nil {
		from.mu.Lock()
		from.q.remove(p)
		if from != to {
			from.mu.Unlock()
		}
	}
	if to != nil {
		if to != from {
			to.mu.Lock()
		}
		to.q.pushBack(p)
		to.mu.Unlock()
	}
}

// grabFreePage removes one page from the free layer, drawing from
// magazine mag, and returns it exclusively owned and marked busy. When
// memory is exhausted it runs pageout synchronously — single-flight, so
// concurrent losers wait for the in-flight scan instead of piling
// redundant scans on top of it — and returns ErrNoMemory only after
// repeated scans reclaim nothing.
func (k *Kernel) grabFreePage(mag int) (*Page, error) {
	futile := 0
	for {
		if p := k.magazinePop(mag); p != nil {
			k.freeCount.Add(-1)
			p.mag = uint8(mag)
			p.busy = true
			p.absent = false
			p.dirty = false
			p.precious = false
			p.wireCount.Store(0)
			return p, nil
		}
		if k.PageoutScan() == 0 && k.FreeCount() == 0 {
			// The scan we ran (or waited on) freed nothing and nothing
			// is free anywhere; only repeated futile passes mean memory
			// is truly exhausted rather than transiently contended.
			if futile++; futile >= 8 {
				return nil, ErrNoMemory
			}
		} else {
			futile = 0
		}
	}
}

// releaseFreePage returns a grabbed-but-never-installed page to the free
// layer (the caller lost an installation race).
func (k *Kernel) releaseFreePage(p *Page) {
	p.busy = false
	p.absent = false
	p.dirty = false
	p.precious = false
	k.magazinePush(p)
	k.freeCount.Add(1)
}

// detachAndFree takes a page whose identity has been removed — so no other
// thread can reach it through the page table — detaches it from its
// allocation queue and returns it to the free layer.
func (k *Kernel) detachAndFree(p *Page) {
	k.setQueue(p, queueNone)
	p.busy = false
	p.absent = false
	p.dirty = false
	p.precious = false
	p.wireCount.Store(0)
	k.magazinePush(p)
	k.freeCount.Add(1)
	k.stats.PagesFreed.Add(1)
}

// allocPage grabs a free page and inserts it, busy, into obj at offset so
// the caller can fill it without any page-table lock. It blocks (running
// pageout synchronously) if memory is exhausted, returning ErrNoMemory
// when repeated scans reclaim nothing. fresh=false means a concurrent
// faulter installed a page at (obj, offset) first; the returned page is
// that one, and the caller should rewalk rather than fill it.
func (k *Kernel) allocPage(obj *Object, offset uint64) (*Page, bool, error) {
	h := pageHash(obj, offset)
	p, err := k.grabFreePage(int(h & (numPageShards - 1)))
	if err != nil {
		return nil, false, err
	}
	obj.mu.Lock()
	s := k.shardOf(h)
	s.mu.Lock()
	if existing := s.lookup(h, obj, offset); existing != nil {
		s.mu.Unlock()
		obj.mu.Unlock()
		k.releaseFreePage(p)
		k.stats.AllocRaces.Add(1)
		return existing, false, nil
	}
	k.insertPageLocked(s, h, p, obj, offset)
	s.mu.Unlock()
	obj.mu.Unlock()
	if k.FreeCount() < k.freeMin {
		k.stats.PageoutsWanted.Add(1)
		k.wakePageoutDaemon()
	}
	k.stats.PagesAllocated.Add(1)
	return p, true, nil
}

// insertPageLocked links p into obj's resident list and the hash. The
// caller holds obj's lock and the shard lock for (obj, offset), has just
// looked the identity up under them and found nothing; h is its pageHash.
func (k *Kernel) insertPageLocked(s *pageShard, h uint64, p *Page, obj *Object, offset uint64) {
	p.setIdentity(obj, offset)
	p.mag = uint8(h & (numPageShards - 1))
	s.insert(h, p)
	// Object list: push front (cheap; order is not semantic).
	p.objNext = obj.pageList
	p.objPrev = nil
	if obj.pageList != nil {
		obj.pageList.objPrev = p
	}
	obj.pageList = p
	obj.resident++
}

// removePageLocked unlinks p from its object and the hash, waking any
// faulters parked on its key (they re-look-up and find the page gone). The
// caller holds the owning object's lock and the shard lock of p's
// identity.
func (k *Kernel) removePageLocked(s *pageShard, p *Page) {
	// The caller holds the identity's shard lock, so no identity change
	// is in flight and the fields can be read directly.
	obj := p.identObj.Load()
	if obj == nil {
		return
	}
	key := pageKey{obj: obj, offset: p.identOff.Load()}
	s.remove(pageHash(obj, key.offset), p)
	s.wake(key)
	p.clearIdentity()
	if p.objPrev != nil {
		p.objPrev.objNext = p.objNext
	} else {
		obj.pageList = p.objNext
	}
	if p.objNext != nil {
		p.objNext.objPrev = p.objPrev
	}
	p.objPrev, p.objNext = nil, nil
	obj.resident--
}

// freePage returns p to the free list, severing object links. The caller
// must have made the page unreclaimable by others (typically by owning its
// busy bit).
func (k *Kernel) freePage(p *Page) {
	for {
		obj, off, seq, ok := p.identity()
		if !ok {
			break
		}
		obj.mu.Lock()
		s := k.shardFor(obj, off)
		s.mu.Lock()
		if p.identSeq.Load() != seq {
			s.mu.Unlock()
			obj.mu.Unlock()
			continue
		}
		k.removePageLocked(s, p)
		s.mu.Unlock()
		obj.mu.Unlock()
		break
	}
	k.detachAndFree(p)
}

// freePageObjLocked is freePage for callers already holding the owning
// object's lock (the pageout daemon).
func (k *Kernel) freePageObjLocked(p *Page) {
	if obj, off, _, ok := p.identity(); ok {
		s := k.shardFor(obj, off)
		s.mu.Lock()
		k.removePageLocked(s, p)
		s.mu.Unlock()
	}
	k.detachAndFree(p)
}

// lookupPage returns the resident page for (obj, offset) as it is:
// unclaimed, possibly busy.
func (k *Kernel) lookupPage(obj *Object, offset uint64) *Page {
	h := pageHash(obj, offset)
	s := k.shardOf(h)
	s.mu.Lock()
	p := s.lookup(h, obj, offset)
	s.mu.Unlock()
	return p
}

// pageWakeup clears busy and wakes the waiters parked on this page.
func (k *Kernel) pageWakeup(p *Page) { k.releasePage(p, false) }

// releasePage ends a busy claim. With activate — the tail of a fault that
// entered the page into hardware — it first puts the page on the active
// queue, under the same hold of the shard lock.
func (k *Kernel) releasePage(p *Page, activate bool) {
	s, obj, off := k.lockPage(p)
	if s == nil {
		p.busy = false
		return
	}
	if activate && p.wireCount.Load() == 0 {
		k.setQueue(p, queueActive)
	}
	p.busy = false
	s.wake(pageKey{obj: obj, offset: off})
	s.mu.Unlock()
}

// activatePage puts p on the active queue (it is in use).
func (k *Kernel) activatePage(p *Page) {
	s, _, _ := k.lockPage(p)
	if s == nil {
		return
	}
	if p.wireCount.Load() == 0 {
		k.setQueue(p, queueActive)
	}
	s.mu.Unlock()
}

// deactivatePage moves p to the inactive queue (pageout candidate).
func (k *Kernel) deactivatePage(p *Page) {
	s, _, _ := k.lockPage(p)
	if s == nil {
		return
	}
	if p.queue == queueActive {
		k.setQueue(p, queueInactive)
		for i := 0; i < k.hwRatio; i++ {
			k.mod.ClearReference(p.pfn + vmtypes.PFN(i))
		}
	}
	s.mu.Unlock()
}

// wirePage pins p in memory (removing it from pageout's reach).
func (k *Kernel) wirePage(p *Page) {
	s, _, _ := k.lockPage(p)
	if s == nil {
		return
	}
	if p.wireCount.Add(1) == 1 {
		k.setQueue(p, queueNone)
	}
	s.mu.Unlock()
}

// unwirePage releases a pin.
func (k *Kernel) unwirePage(p *Page) {
	s, _, _ := k.lockPage(p)
	if s == nil {
		return
	}
	if p.wireCount.Load() > 0 && p.wireCount.Add(-1) == 0 {
		k.setQueue(p, queueActive)
	}
	s.mu.Unlock()
}

// FreeCount returns the number of free Mach pages across the magazines
// and the depot. It reads an atomic counter, so pageout-trigger checks
// never take a lock.
func (k *Kernel) FreeCount() int { return int(k.freeCount.Load()) }

// ActiveCount returns the number of active Mach pages.
func (k *Kernel) ActiveCount() int {
	k.active.mu.Lock()
	defer k.active.mu.Unlock()
	return k.active.q.count
}

// InactiveCount returns the number of inactive Mach pages.
func (k *Kernel) InactiveCount() int {
	k.inactive.mu.Lock()
	defer k.inactive.mu.Unlock()
	return k.inactive.q.count
}

// zeroPage zero-fills every hardware frame of the Mach page.
func (k *Kernel) zeroPage(p *Page) {
	for i := 0; i < k.hwRatio; i++ {
		k.mod.ZeroPage(p.pfn + vmtypes.PFN(i))
	}
}

// copyPage copies the contents of one Mach page to another.
func (k *Kernel) copyPage(src, dst *Page) {
	for i := 0; i < k.hwRatio; i++ {
		k.mod.CopyPage(src.pfn+vmtypes.PFN(i), dst.pfn+vmtypes.PFN(i))
	}
}

// snapshotPage copies the Mach page's bytes into data under the per-frame
// locks (used before handing the data to a pager).
func (k *Kernel) snapshotPage(p *Page, data []byte) {
	hwPage := k.machine.Mem.PageSize()
	for i := 0; i < k.hwRatio; i++ {
		pfn := p.pfn + vmtypes.PFN(i)
		k.machine.Mem.LockFrame(pfn)
		copy(data[i*hwPage:], k.machine.Mem.Frame(pfn))
		k.machine.Mem.UnlockFrame(pfn)
	}
}

// removeAllMappings removes every hardware mapping of the Mach page
// (pmap_remove_all over each frame).
func (k *Kernel) removeAllMappings(p *Page) {
	for i := 0; i < k.hwRatio; i++ {
		k.mod.RemoveAll(p.pfn + vmtypes.PFN(i))
	}
}

// writeProtectAll write-protects every hardware mapping of the Mach page
// (pmap_copy_on_write over each frame).
func (k *Kernel) writeProtectAll(p *Page) {
	for i := 0; i < k.hwRatio; i++ {
		k.mod.CopyOnWrite(p.pfn + vmtypes.PFN(i))
	}
}

// isModified reports whether any frame of the Mach page is dirty at the
// hardware level.
func (k *Kernel) isModified(p *Page) bool {
	for i := 0; i < k.hwRatio; i++ {
		if k.mod.IsModified(p.pfn + vmtypes.PFN(i)) {
			return true
		}
	}
	return false
}

// isReferenced reports whether any frame of the Mach page was referenced.
func (k *Kernel) isReferenced(p *Page) bool {
	for i := 0; i < k.hwRatio; i++ {
		if k.mod.IsReferenced(p.pfn + vmtypes.PFN(i)) {
			return true
		}
	}
	return false
}

// clearModify clears the hardware modify bits of the Mach page.
func (k *Kernel) clearModify(p *Page) {
	for i := 0; i < k.hwRatio; i++ {
		k.mod.ClearModify(p.pfn + vmtypes.PFN(i))
	}
}
