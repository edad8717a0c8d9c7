package core

import (
	"sync"
	"sync/atomic"

	"machvm/internal/trace"
)

// Object is a memory object (§3.3): logically a repository for data,
// indexed by byte, in many respects resembling a UNIX file. All backing
// store is implemented by memory objects; address maps map address ranges
// to byte offsets within them. A reference counter lets the object be
// garbage collected when all mapped references are removed — or cached,
// for frequently used objects like text segments.
type Object struct {
	mu sync.Mutex

	refs int

	// size is the object's extent in bytes.
	size uint64

	// pager manages this object's non-resident data; nil means the
	// object is internal (zero-filled on first touch, paged to the
	// default pager).
	pager Pager

	// internal objects are kernel-created anonymous memory; external
	// objects belong to user or file pagers.
	internal bool

	// canPersist allows the object to enter the object cache when the
	// last reference disappears (pager_cache).
	canPersist bool

	// cached is true while the object sits unreferenced in the cache.
	cached bool

	// shadow chains (§3.4): this object relies on the shadowed object
	// for all data it does not hold itself. shadowOffset locates this
	// object's byte 0 within the shadow.
	shadow       *Object
	shadowOffset uint64

	// pageList heads the memory-object page list; resident counts it.
	pageList *Page
	resident int

	// pagingInProgress delays destruction and collapse while a pager
	// conversation is outstanding.
	pagingInProgress int

	// name is a debugging label.
	name string

	// pooled marks fault-path internal objects (lazy anonymous memory
	// and COW shadows) that recycle through the kernel's object pool at
	// termination instead of being garbage. Only terminateObject may
	// recycle: at that point refs is 0, every page is gone, and no
	// shadow-chain walker can stand on the object.
	pooled bool

	// generation distinguishes cache or pool reuse from a fresh object.
	// Atomic because the page-shard hash reads it from lock-free
	// identity snapshots that may race with a pooled reinitialization
	// (such stale readers then fail seqlock revalidation and retry).
	// Assigned from a per-kernel counter so generations — and everything
	// derived from them: the shard hash, trace object IDs — are
	// deterministic for a deterministically driven kernel, regardless of
	// what other kernels exist in the process.
	generation atomic.Uint64

	// clusterPages is the fault-in cluster size in Mach pages (atomic:
	// read on the fault path without the object lock). 0 selects the
	// default; 1 disables clustering for this object.
	clusterPages atomic.Int32

	// fallback is the object's PagerFallback degradation policy, applied
	// when its pager fails (atomic: read on the fault path without the
	// object lock).
	fallback atomic.Int32

	// tier is the caller-requested storage-tier placement (Tier); autoTier
	// is the kernel's decision when tier is TierAuto, driven by the
	// pageout daemon's reference information (see noteRefaults /
	// notePageouts). Both atomic: a tiered pager reads them during
	// DataWrite with no object lock held.
	tier     atomic.Int32
	autoTier atomic.Int32

	// tierRefaults counts pages paged back in from the object's pager;
	// tierPageouts counts pages the daemon wrote out. Together they are
	// the signal for automatic tier placement: an object whose pages keep
	// refaulting after eviction is hot, one that pours pages out and never
	// asks for them back is cold.
	tierRefaults atomic.Uint64
	tierPageouts atomic.Uint64
}

// PagerFallback selects how a fault degrades when the object's pager
// ultimately fails (deadline exhausted or a non-ErrDataUnavailable error
// after retries).
type PagerFallback int32

const (
	// FallbackError surfaces the pager error (wrapping ErrPagerTimeout on
	// deadline exhaustion) through Fault. The default.
	FallbackError PagerFallback = iota
	// FallbackZeroFill treats the failure as pager_data_unavailable: the
	// fault continues down the shadow chain and zero-fills at the end.
	FallbackZeroFill
	// FallbackSwap re-asks the kernel's default pager for the data; on
	// pageout it retargets the object to the default pager so dirty pages
	// are never stranded behind a dead manager.
	FallbackSwap
)

// Tier is an object's storage-tier placement hint, consumed by tiered
// pagers (internal/pager/ztier) on the pageout path. The kernel itself
// attaches no mechanism to a tier beyond computing the automatic placement;
// a flat pager is free to ignore it.
type Tier int32

const (
	// TierAuto lets the pageout daemon's reference information decide:
	// objects whose pages keep refaulting after eviction are promoted hot,
	// objects that stream pages out without ever refaulting demote cold.
	// The default.
	TierAuto Tier = iota
	// TierHot pins the object's evictions in the fast tier: a tiered
	// pager keeps its compressed blobs resident and evicts them to the
	// backing store only under hard memory pressure.
	TierHot
	// TierCold marks the object writeback-eager: a tiered pager bypasses
	// the fast tier entirely and writes straight to the backing store, so
	// a cold object never occupies compressed-pool budget.
	TierCold
)

func (t Tier) String() string {
	switch t {
	case TierAuto:
		return "auto"
	case TierHot:
		return "hot"
	case TierCold:
		return "cold"
	default:
		return "tier(?)"
	}
}

// Automatic tier-placement thresholds: an auto object is promoted hot once
// this many pages refaulted back from its pager, and demoted cold once it
// paged out this many pages without a single refault.
const (
	tierPromoteRefaults = 16
	tierDemotePageouts  = 64
)

// SetTier sets the object's storage-tier placement. TierAuto (the default)
// re-enables automatic placement from the pageout daemon's reference
// information.
func (o *Object) SetTier(t Tier) {
	o.tier.Store(int32(t))
	if t != TierAuto {
		o.autoTier.Store(int32(TierAuto)) // forget the automatic verdict
	}
}

// EffectiveTier returns the placement a tiered pager should honor: the
// explicit SetTier value when one is set, otherwise the kernel's automatic
// verdict (TierAuto until enough reference information accumulates).
func (o *Object) EffectiveTier() Tier {
	if t := Tier(o.tier.Load()); t != TierAuto {
		return t
	}
	return Tier(o.autoTier.Load())
}

// noteRefaults records n pages paged back in from the object's pager and
// applies the automatic promotion rule: refaulting evictions mean the
// working set is larger than memory but live — exactly what the fast tier
// is for — so the object is pinned hot.
func (o *Object) noteRefaults(k *Kernel, n int) {
	if o.tierRefaults.Add(uint64(n)) >= tierPromoteRefaults &&
		Tier(o.tier.Load()) == TierAuto &&
		o.autoTier.CompareAndSwap(int32(TierAuto), int32(TierHot)) {
		k.stats.TierPromotions.Add(1)
	}
	// Any refault rescinds a cold verdict: the object is being read again.
	o.autoTier.CompareAndSwap(int32(TierCold), int32(TierAuto))
}

// notePageouts records n pages written out and applies the automatic
// demotion rule: a stream of evictions with no refault at all is cold data
// (a scan, a log, a dropped cache) that should not occupy fast-tier budget.
func (o *Object) notePageouts(k *Kernel, n int) {
	if o.tierPageouts.Add(uint64(n)) >= tierDemotePageouts &&
		o.tierRefaults.Load() == 0 &&
		Tier(o.tier.Load()) == TierAuto &&
		o.autoTier.CompareAndSwap(int32(TierAuto), int32(TierCold)) {
		k.stats.TierDemotions.Add(1)
	}
}

// NewObject creates a memory object of the given size, managed by pager
// (nil for internal zero-fill memory).
func (k *Kernel) NewObject(size uint64, pager Pager, name string) *Object {
	o := &Object{
		refs:     1,
		size:     k.roundPage(size),
		pager:    pager,
		internal: pager == nil,
		name:     name,
	}
	o.generation.Store(k.objectIDs.Add(1))
	if pager != nil {
		pager.Init(o)
	}
	k.stats.ObjectsCreated.Add(1)
	return o
}

// newPooledObject returns a recycled (or fresh) fault-path object with
// every field reset and a new generation. Pooled objects are the
// fault path's internal creations — lazy anonymous zero-fill memory and
// COW shadows: they never have a pager and never enter the object
// cache, so terminateObject is their only exit and the recycle point.
// Fields are reset one by one (never by struct copy — the mutex and
// atomics must not be overwritten while a stale lock-free reader still
// holds the pointer).
func (k *Kernel) newPooledObject() *Object {
	o, _ := k.objectPool.Get().(*Object)
	if o == nil {
		o = &Object{}
	}
	o.refs = 1
	o.size = 0
	o.pager = nil
	o.internal = true
	o.canPersist = false
	o.cached = false
	o.shadow = nil
	o.shadowOffset = 0
	o.pageList = nil
	o.resident = 0
	o.pagingInProgress = 0
	o.name = ""
	o.pooled = true
	o.clusterPages.Store(0)
	o.fallback.Store(0)
	o.tier.Store(0)
	o.autoTier.Store(0)
	o.tierRefaults.Store(0)
	o.tierPageouts.Store(0)
	o.generation.Store(k.objectIDs.Add(1))
	return o
}

// newAnonObject is the pooled equivalent of NewObject(size, nil,
// "anonymous"), used by the fault path's lazy zero-fill allocation.
func (k *Kernel) newAnonObject(size uint64) *Object {
	o := k.newPooledObject()
	o.size = k.roundPage(size)
	o.name = "anonymous"
	k.stats.ObjectsCreated.Add(1)
	return o
}

// ID returns the object's stable per-kernel identifier (its generation):
// unique per object incarnation, assigned in creation order. Trace events
// name objects by this ID.
func (o *Object) ID() uint64 { return o.generation.Load() }

// Name returns the object's debugging label.
func (o *Object) Name() string { return o.name }

// Size returns the object's extent in bytes.
func (o *Object) Size() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.size
}

// Resident returns the number of resident pages.
func (o *Object) Resident() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.resident
}

// Refs returns the current reference count.
func (o *Object) Refs() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.refs
}

// Pager returns the object's pager (nil for internal memory).
func (o *Object) Pager() Pager {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pager
}

// defaultClusterPages is the fault-in cluster applied to objects that
// never called SetClusterSize: one pager-backed miss reads an aligned run
// of up to this many Mach pages (clipped to the entry and object bounds).
const defaultClusterPages = 8

// maxClusterPages bounds SetClusterSize; larger requests are clamped so a
// single conversation cannot monopolize free memory.
const maxClusterPages = 64

// SetClusterSize sets the object's fault-in cluster size in Mach pages:
// how much a single pager-backed miss reads around the faulting offset.
// 1 disables clustering; 0 restores the default (8). Values are clamped
// to [1, 64]. The extra pages are installed resident-but-unmapped, so
// neighboring faults hit the resident fast path without a conversation.
func (o *Object) SetClusterSize(pages int) {
	if pages < 0 {
		pages = 0
	}
	if pages > maxClusterPages {
		pages = maxClusterPages
	}
	o.clusterPages.Store(int32(pages))
}

// ClusterSize returns the effective fault-in cluster size in Mach pages.
func (o *Object) ClusterSize() int {
	if n := o.clusterPages.Load(); n > 0 {
		return int(n)
	}
	return defaultClusterPages
}

// SetCanPersist marks the object cacheable after its last release
// (the pager_cache call of Table 3-2).
func (o *Object) SetCanPersist(v bool) {
	o.mu.Lock()
	o.canPersist = v
	o.mu.Unlock()
}

// ChainLength returns the length of the shadow chain starting here
// (1 for an unshadowed object) — the quantity §3.5's garbage collection
// exists to bound.
func (o *Object) ChainLength() int {
	n := 0
	for cur := o; cur != nil; {
		n++
		cur.mu.Lock()
		next := cur.shadow
		cur.mu.Unlock()
		cur = next
	}
	return n
}

// Reference adds a reference.
func (o *Object) Reference() {
	o.mu.Lock()
	o.refs++
	o.mu.Unlock()
}

// releaseObject drops a reference. When the last reference disappears the
// object is either cached (if it can persist — keeping its physical pages
// so reuse is very inexpensive) or terminated.
func (k *Kernel) releaseObject(o *Object) {
	for o != nil {
		o.mu.Lock()
		o.refs--
		if o.refs > 0 {
			// Somebody still needs it; but a shadow chain whose
			// intermediate links have a single reference may now be
			// collapsible from above. Collapse is driven by the
			// shadow-creation and fault paths.
			o.mu.Unlock()
			return
		}
		if o.canPersist && o.pager != nil {
			// Keep it warm in the object cache.
			o.refs = 0
			o.cached = true
			o.mu.Unlock()
			k.cache.insert(k, o)
			return
		}
		shadow := o.shadow
		o.shadow = nil
		o.mu.Unlock()
		k.terminateObject(o)
		o = shadow // drop our reference on the backing object too
	}
}

// terminateObject frees the object's pages and tells its pager.
func (k *Kernel) terminateObject(o *Object) {
	// Free every resident page. Hardware mappings are removed before a
	// page reaches the free list so it can never be reallocated while a
	// stale translation survives.
	for {
		o.mu.Lock()
		p := o.pageList
		if p == nil {
			o.mu.Unlock()
			break
		}
		// List membership implies identity, so the identity is stable
		// while o's lock is held.
		off := p.Offset()
		s := k.shardFor(o, off)
		s.mu.Lock()
		if p.busy {
			// Wait for the page's I/O to settle before freeing.
			k.stats.BusyWaits.Add(1)
			ch := s.waitChan(pageKey{obj: o, offset: off})
			s.mu.Unlock()
			o.mu.Unlock()
			<-ch
			continue
		}
		k.removePageLocked(s, p)
		s.mu.Unlock()
		o.mu.Unlock()
		// The page is unreachable now (no identity); unmap it before it
		// becomes allocatable again.
		k.removeAllMappings(p)
		k.detachAndFree(p)
	}
	if o.pager != nil {
		o.pager.Terminate(o)
	}
	k.stats.ObjectsTerminated.Add(1)
	if o.pooled {
		// Refs hit zero and every page is gone, so nothing reaches this
		// object through a map entry or its page list anymore; lock-free
		// page-identity snapshots that still hold the pointer revalidate
		// against the seqlock and retry. (The collapseShadow bypass path
		// deliberately does NOT recycle: a shadow-chain walker may still
		// stand on the bypassed backing object.)
		k.objectPool.Put(o)
	}
}

// shadowObject makes a new shadow object in front of o: an initially empty
// internal object, without a pager but with a pointer to the shadowed
// object (§3.4). The caller transfers its reference on o to the shadow.
func (k *Kernel) shadowObject(o *Object, offset, size uint64) *Object {
	s := k.newPooledObject()
	s.size = k.roundPage(size)
	s.shadow = o
	s.shadowOffset = offset
	s.name = "shadow"
	k.stats.ObjectsCreated.Add(1)
	k.stats.ShadowsCreated.Add(1)
	return s
}

// collapseShadow attempts the shadow-chain garbage collection of §3.5:
// when an intermediate shadow is no longer needed — its only reference is
// the object shadowing it — its pages are swallowed and it is bypassed.
// The argument is the front object whose backing chain should be checked.
func (k *Kernel) collapseShadow(front *Object) {
	for {
		front.mu.Lock()
		backing := front.shadow
		if backing == nil {
			front.mu.Unlock()
			return
		}
		backing.mu.Lock()
		// The backing object can be collapsed into front only when
		// front holds the sole reference, no pager owns the backing
		// data, and no paging conversation is in flight.
		if backing.refs != 1 || backing.pager != nil || backing.pagingInProgress > 0 || front.pagingInProgress > 0 {
			backing.mu.Unlock()
			front.mu.Unlock()
			return
		}
		shadowOffset := front.shadowOffset
		// Move every page of backing that front lacks (and that falls
		// inside front's window) into front; free the rest. Pages are
		// handled one at a time: the lock discipline allows at most one
		// shard lock, so a move is remove-under-old-shard followed by
		// insert-under-new-shard. In between the page has no identity
		// and is unreachable, which is safe because both objects' locks
		// are held and concurrent faulters pin the chain (raising
		// pagingInProgress) before walking past front — pinned chains
		// make this collapse abort above.
		var frees []*Page
		aborted := false
		for p := backing.pageList; p != nil; {
			next := p.objNext
			off := p.Offset()
			s := k.shardFor(backing, off)
			s.mu.Lock()
			if p.busy {
				// Give up; try again another time.
				s.mu.Unlock()
				aborted = true
				break
			}
			k.removePageLocked(s, p)
			s.mu.Unlock()
			newOffset := int64(off) - int64(shadowOffset)
			moved := false
			if newOffset >= 0 && uint64(newOffset) < front.size {
				h := pageHash(front, uint64(newOffset))
				d := k.shardOf(h)
				d.mu.Lock()
				if d.lookup(h, front, uint64(newOffset)) == nil {
					k.insertPageLocked(d, h, p, front, uint64(newOffset))
					moved = true
				}
				d.mu.Unlock()
			}
			if !moved {
				frees = append(frees, p)
			}
			p = next
		}
		for _, p := range frees {
			// Unmap before the page becomes allocatable again.
			k.removeAllMappings(p)
			k.detachAndFree(p)
		}
		if aborted {
			backing.mu.Unlock()
			front.mu.Unlock()
			return
		}
		// Bypass: front now shadows what backing shadowed.
		front.shadow = backing.shadow
		front.shadowOffset = shadowOffset + backing.shadowOffset
		backing.shadow = nil
		backing.refs = 0
		backing.mu.Unlock()
		front.mu.Unlock()
		k.stats.ShadowsCollapsed.Add(1)
		k.stats.ObjectsTerminated.Add(1)
		// Loop: the new backing may be collapsible as well.
	}
}

// objectCache retains frequently used memory objects after their last
// mapping reference disappears (§3.3), so reusing a text segment or hot
// file is very inexpensive.
type objectCache struct {
	mu    sync.Mutex
	limit int
	// FIFO of cached objects, oldest first.
	objs                    []*Object
	hits, misses, evictions uint64
}

func (c *objectCache) init(limit int) { c.limit = limit }

// insert places an unreferenced, persistent object in the cache, evicting
// the oldest entry beyond the limit.
func (c *objectCache) insert(k *Kernel, o *Object) {
	var evict *Object
	c.mu.Lock()
	c.objs = append(c.objs, o)
	if len(c.objs) > c.limit {
		evict = c.objs[0]
		c.objs = c.objs[1:]
		c.evictions++
	}
	c.mu.Unlock()
	if evict != nil {
		evict.mu.Lock()
		stillCached := evict.cached && evict.refs == 0
		evict.cached = false
		shadow := evict.shadow
		evict.shadow = nil
		evict.mu.Unlock()
		if stillCached {
			k.terminateObject(evict)
			if shadow != nil {
				k.releaseObject(shadow)
			}
		}
	}
}

// take removes o from the cache if present, returning whether it was.
func (c *objectCache) take(o *Object) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, cand := range c.objs {
		if cand == o {
			c.objs = append(c.objs[:i], c.objs[i+1:]...)
			return true
		}
	}
	return false
}

// Len returns the number of cached objects.
func (c *objectCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.objs)
}

// LookupCached revives an object from the cache: the caller gets a fresh
// reference and the object keeps its resident pages — this is what makes
// the second read of a hot file cheap under Mach.
func (k *Kernel) LookupCached(o *Object) bool {
	o.mu.Lock()
	if !o.cached {
		o.mu.Unlock()
		k.cache.mu.Lock()
		k.cache.misses++
		k.cache.mu.Unlock()
		return false
	}
	o.mu.Unlock()
	if !k.cache.take(o) {
		return false
	}
	o.mu.Lock()
	o.cached = false
	o.refs = 1
	o.mu.Unlock()
	k.cache.mu.Lock()
	k.cache.hits++
	k.cache.mu.Unlock()
	k.stats.CacheRevives.Add(1)
	return true
}

// CachedObjects returns the current object-cache population.
func (k *Kernel) CachedObjects() int { return k.cache.Len() }

// CanPersist reports whether the object will enter the cache on its last
// release.
func (o *Object) CanPersist() bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.canPersist
}

// ReleaseObjectRef drops one reference to the object (the public face of
// object deallocation; maps drop their references automatically).
func (k *Kernel) ReleaseObjectRef(o *Object) {
	t := k.TraceOp()
	id := o.ID()
	k.releaseObject(o)
	if t != nil {
		t.End(trace.OpReleaseObject, trace.Event{Obj: id}, nil)
	}
}
