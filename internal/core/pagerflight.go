package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"machvm/internal/vmtypes"
)

// A pagerFlight is one in-flight DataRequest conversation for a contiguous
// run of pages in one object. Flights are single-flight per page: the
// first faulter (the leader) allocates the busy anchor page, extends the
// run around it up to the object's cluster size, names the flight in every
// page of the run (Page.flight) and issues one conversation for the whole
// range; every concurrent faulter that finds one of those busy pages joins
// the flight and shares its per-page outcome instead of issuing a duplicate
// request or paying a fresh deadline of its own.
//
// The busy-page claim protocol survives abandonment: the flight, not any
// particular faulter, owns the pages' busy bits. A faulter whose context
// is cancelled walks away immediately while the flight keeps running to
// its own deadline, after which each page is either filled (clearing busy)
// or freed (waking every waiter) — a page can never stay busy forever
// because the thread that wanted it gave up.
//
// A flight is one allocation: the run and its outcomes live in inline arrays
// (a cluster wider than the default spills to the heap), the deadline
// contexts are embedded, and the channel waiters park on is made only when
// somebody parks — a leader that runs the conversation itself never does.
type pagerFlight struct {
	// isFallback marks a flight already running against the default swap
	// pager as a degradation, so a failure never re-applies FallbackSwap.
	isFallback bool

	// The run this flight owns: len(pages) busy absent pages, pages[i]
	// at object byte offset start + i*pageSize. errs[i] is page i's
	// outcome, valid only once resolved: nil (filled and resident),
	// errClusterSkipped (freed without a definitive answer),
	// ErrDataUnavailable or a pager error (freed).
	start   uint64
	pages   []*Page
	errs    []error
	pageBuf [defaultClusterPages]*Page
	errBuf  [defaultClusterPages]error

	// ctx bounds the clustered conversation, retryCtx the anchor's
	// single-page retry.
	ctx, retryCtx deadlineCtx

	// resolved is set, and done (if anybody made it) closed, once every
	// page of the run is resolved. mu guards done and orders the two.
	resolved atomic.Bool
	mu       sync.Mutex
	done     chan struct{}
}

// resolve publishes the flight's outcomes to its waiters.
func (f *pagerFlight) resolve() {
	f.mu.Lock()
	f.resolved.Store(true)
	if f.done != nil {
		close(f.done)
	}
	f.mu.Unlock()
}

// wait blocks until the flight is resolved or ctx is done, whichever comes
// first, and reports whether it was the flight.
func (f *pagerFlight) wait(ctx context.Context) bool {
	if f.resolved.Load() {
		return true
	}
	f.mu.Lock()
	if f.done == nil {
		f.done = make(chan struct{})
		if f.resolved.Load() {
			close(f.done)
		}
	}
	done := f.done
	f.mu.Unlock()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return false
	}
}

// errClusterSkipped marks a cluster page the pager's reply did not reach:
// neither filled nor definitively absent. The page is freed and its
// waiters re-walk the chain; whoever reaches pageIn first becomes the
// anchor of its own conversation, which resolves that page definitively —
// so progress is guaranteed and a gap in one pager's data is never papered
// over with zeroes that would hide a backing object's pages.
var errClusterSkipped = errors.New("pager: cluster page not covered by reply")

// fillPageFrom copies one page's worth of pager data starting at data[lo]
// into p's hardware frames, zero-filling the tail of a short read.
func (k *Kernel) fillPageFrom(p *Page, data []byte, lo int) {
	hwPage := k.machine.Mem.PageSize()
	for i := 0; i < k.hwRatio; i++ {
		pfn := p.pfn + vmtypes.PFN(i)
		k.machine.Mem.LockFrame(pfn)
		frame := k.machine.Mem.Frame(pfn)
		off := lo + i*hwPage
		if off >= len(data) {
			clear(frame)
		} else {
			n := copy(frame, data[off:])
			clear(frame[n:])
		}
		k.machine.Mem.UnlockFrame(pfn)
	}
}

// runClusterFlight runs the pager conversation for the flight's run of
// busy pages and resolves each page individually. Filled pages go resident
// (readahead extras on the inactive queue, so a wrong guess stays
// reclaimable); pages the reply did not cover are freed with
// errClusterSkipped so their waiters re-look-up; the anchor — the page the
// leading faulter actually needs — is always resolved definitively, with a
// single-page retry conversation if the clustered reply fell short of it.
// Every page forgets the flight before any page is released, so a faulter
// can never join a flight whose pages have already moved on.
func (k *Kernel) runClusterFlight(f *pagerFlight, obj *Object, pager Pager, anchor int) {
	n := len(f.pages)
	pgsz := int(k.pageSize)
	data, err := k.pagerRequestData(&f.ctx, pager, obj, f.start, n*pgsz)
	k.stats.PagerRoundTrips.Add(1)
	switch {
	case err == nil:
		// A short read is legal: the reply covers a prefix of the run
		// and the rest is resolved separately. A successful reply always
		// covers at least the first page (zero-filling its tail), which
		// preserves the single-page semantics exactly.
		covered := (len(data) + pgsz - 1) / pgsz
		if covered < 1 {
			covered = 1
		}
		if covered > n {
			covered = n
		}
		k.machine.ChargeKB(k.machine.Cost.CopyPerKB, len(data))
		for i := 0; i < n; i++ {
			if i < covered {
				k.fillPageFrom(f.pages[i], data, i*pgsz)
				f.errs[i] = nil
			} else {
				f.errs[i] = errClusterSkipped
			}
		}
	case errors.Is(err, ErrDataUnavailable):
		// Definitive only for the first page: the pager said nothing
		// about what lies beyond the offset it rejected.
		f.errs[0] = err
		for i := 1; i < n; i++ {
			f.errs[i] = errClusterSkipped
		}
	default:
		// Conversation failure (timeout, pager error): there is no
		// per-page information to extract, so every page shares the
		// failure — exactly as single-page flights always have.
		for i := 0; i < n; i++ {
			f.errs[i] = err
		}
	}

	if errors.Is(f.errs[anchor], errClusterSkipped) {
		// The faulting page itself must leave the flight with a
		// definitive answer; re-ask for it alone.
		aoff := f.start + uint64(anchor)*k.pageSize
		adata, aerr := k.pagerRequestData(&f.retryCtx, pager, obj, aoff, pgsz)
		k.stats.PagerRoundTrips.Add(1)
		if aerr == nil {
			k.machine.ChargeKB(k.machine.Cost.CopyPerKB, len(adata))
			k.fillPageFrom(f.pages[anchor], adata, 0)
			f.errs[anchor] = nil
		} else {
			f.errs[anchor] = aerr
		}
	}

	// Unname the flight before releasing any page, so no faulter can join a
	// dead flight, then resolve every page: fill-and-wake or free-and-wake.
	for _, p := range f.pages {
		p.flight.Store(nil)
	}
	obj.mu.Lock()
	obj.pagingInProgress--
	obj.mu.Unlock()

	filled := 0
	for i, p := range f.pages {
		if f.errs[i] != nil {
			// Freeing removes the page's identity and wakes the waiters
			// parked on its busy bit; they re-look-up and find it gone.
			k.freePage(p)
			continue
		}
		p.absent = false
		filled++
		// Resident-but-unmapped: a neighboring fault claims the page off
		// the inactive queue without a conversation, while an unused
		// readahead page stays within the pageout daemon's easy reach.
		// The anchor is activated by its faulter right after wakeup.
		if s, _, _ := k.lockPage(p); s != nil {
			if p.wireCount.Load() == 0 {
				k.setQueue(p, queueInactive)
			}
			s.mu.Unlock()
		}
		k.pageWakeup(p)
	}
	if filled > 0 {
		k.stats.Pageins.Add(uint64(filled))
		// Pages coming back from a pager are refaults in the tier-placement
		// sense: the object's data was evicted and wanted again. Feed the
		// auto-tier machinery (resident hits and zero fills stay untouched,
		// keeping the fast fault paths free of this accounting).
		obj.noteRefaults(k, filled)
		extras := filled
		if f.errs[anchor] == nil {
			extras--
		}
		if extras > 0 {
			k.stats.ClusterExtras.Add(uint64(extras))
		}
	}
	f.resolve()
}

// resolveFlight waits for f's outcome for the page at offset — or for the
// caller's context, whichever comes first — and applies obj's degradation
// policy to a failure. It returns pageIn's pair: retry=true means rewalk the
// chain (the page is resident, or its fate is unknown and the rewalk will
// settle it); retry=false with no error means "no data here" (continue down
// the shadow chain without re-asking this level's pager); an error aborts
// the fault.
func (k *Kernel) resolveFlight(ctx context.Context, obj *Object, offset uint64, f *pagerFlight) (retry bool, err error) {
	if !f.wait(ctx) {
		// The caller's context fired first: the fault is abandoned outright
		// and no fallback applies; the flight continues in the background
		// and resolves its busy pages on its own deadline.
		k.stats.PagerAbandons.Add(1)
		return false, fmt.Errorf("vm_fault: pager wait abandoned: %w", ctx.Err())
	}
	ferr := f.errs[(offset-f.start)/k.pageSize] // waiters join through the run's own pages
	switch fb := obj.PagerFallback(); {
	case ferr == nil, errors.Is(ferr, errClusterSkipped):
		return true, nil // resident, or not covered by the clustered reply
	case errors.Is(ferr, ErrDataUnavailable):
		return false, nil
	// A pager failure: degrade per the object's policy.
	case fb == FallbackZeroFill:
		k.stats.PagerFallbacks.Add(1)
		return false, nil
	case fb == FallbackSwap && !f.isFallback:
		// Ask the default pager instead: marked as a fallback so a swap
		// failure surfaces instead of recursing, and single-page.
		k.stats.PagerFallbacks.Add(1)
		return k.pageInWith(ctx, obj, offset, k.swap, true, offset, offset+k.pageSize)
	default:
		return false, ferr
	}
}

// claimPageOrFlight looks up the resident page for (obj, offset) and
// busy-claims it. A busy page that names a flight is owned by an in-flight
// pager request, which is joined (the flight is returned) rather than
// waited on, so a failure is delivered to every waiter at once. Other busy
// pages (pageout, clean, copy) are waited for on the per-key channel.
// Returns (nil, nil) when no page is resident.
func (k *Kernel) claimPageOrFlight(obj *Object, offset uint64) (*Page, *pagerFlight) {
	h := pageHash(obj, offset)
	s := k.shardOf(h)
	s.mu.Lock()
	for {
		p := s.lookup(h, obj, offset)
		if p == nil {
			s.mu.Unlock()
			return nil, nil
		}
		if !p.busy {
			p.busy = true
			s.mu.Unlock()
			return p, nil
		}
		if f := p.flight.Load(); f != nil {
			s.mu.Unlock()
			k.stats.PagerFlightJoins.Add(1)
			return nil, f
		}
		k.stats.BusyWaits.Add(1)
		ch := s.waitChan(pageKey{obj: obj, offset: offset})
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
}

// pageIn asks the object's pager for the page at offset — and, when the
// object's cluster size allows, for an aligned run of neighbors around it
// in the same conversation — through a single-flight bounded by the
// kernel's PagerPolicy. [winLo, winHi) is the map entry's window in
// obj's byte coordinates; the cluster never reads past it. Returns as
// resolveFlight does: retry=true means rewalk the chain; retry=false with
// no error means the pager has no data (or degradation chose zero-fill)
// and the caller continues down the chain.
func (k *Kernel) pageIn(ctx context.Context, obj *Object, offset uint64, pager Pager, winLo, winHi uint64) (retry bool, err error) {
	return k.pageInWith(ctx, obj, offset, pager, pager == k.swap, winLo, winHi)
}

// clusterBounds computes the aligned cluster window around a faulting
// offset: [lo, hi) in obj's byte coordinates, clipped to the map entry's
// window and the object's size. Locking pagers negotiate per-offset locks
// on data delivery, so clustering is disabled for them — a cluster page
// must never bypass a lock the pager would have attached.
func (k *Kernel) clusterBounds(obj *Object, pager Pager, offset, winLo, winHi uint64) (lo, hi uint64) {
	lo, hi = offset, offset+k.pageSize
	cluster := obj.ClusterSize()
	if cluster <= 1 {
		return lo, hi
	}
	if _, ok := pager.(LockingPager); ok {
		return lo, hi
	}
	span := uint64(cluster) * k.pageSize
	clo := offset - offset%span
	chi := clo + span
	if clo < winLo {
		clo = winLo
	}
	if chi > winHi {
		chi = winHi
	}
	if size := k.roundPage(obj.Size()); chi > size {
		chi = size
	}
	// The run always contains the faulting page, whatever the window
	// arithmetic produced.
	if clo > lo {
		clo = lo
	}
	if chi < hi {
		chi = hi
	}
	return clo, chi
}

// clusterAllocOK reports whether readahead may take another free page.
// Clustering never digs into the pageout reserve the way a demand fault
// must: a cluster under memory pressure just shrinks to the anchor.
func (k *Kernel) clusterAllocOK() bool {
	return k.FreeCount() > k.freeMin
}

func (k *Kernel) pageInWith(ctx context.Context, obj *Object, offset uint64, pager Pager, isFallback bool, winLo, winHi uint64) (retry bool, err error) {
	// Insert a busy anchor page first so concurrent faulters wait instead
	// of issuing duplicate requests.
	p, fresh, err := k.allocPage(obj, offset)
	if err != nil {
		return false, err
	}
	if !fresh {
		return true, nil
	}
	p.absent = true

	// Extend the run contiguously around the anchor within the cluster
	// window, claiming each neighbor as a fresh busy absent page.
	// Best-effort: the run stops at an already-resident neighbor, at an
	// allocation failure, or when free memory is too tight for readahead.
	lo, hi := k.clusterBounds(obj, pager, offset, winLo, winHi)
	f := &pagerFlight{isFallback: isFallback}
	f.pages = f.pageBuf[:0]
	claim := func(o uint64) bool {
		if !k.clusterAllocOK() {
			return false
		}
		q, fresh, err := k.allocPage(obj, o)
		if err != nil || !fresh {
			return false
		}
		q.absent = true
		f.pages = append(f.pages, q)
		return true
	}
	for o := offset; o > lo && claim(o-k.pageSize); o -= k.pageSize {
	}
	slices.Reverse(f.pages) // claimed nearest first
	anchor := len(f.pages)
	f.start = offset - uint64(anchor)*k.pageSize
	f.pages = append(f.pages, p)
	for o := offset + k.pageSize; o < hi && claim(o); o += k.pageSize {
	}
	f.errs = append(f.errBuf[:0], make([]error, len(f.pages))...)

	// The pager conversation happens with no locks held; raising
	// pagingInProgress keeps the object from being collapsed or torn down
	// while the request is in flight.
	obj.mu.Lock()
	obj.pagingInProgress++
	obj.mu.Unlock()

	for _, q := range f.pages {
		q.flight.Store(f)
	}
	if ctx.Done() == nil {
		// The caller cannot be cancelled, so waiting for the flight is
		// the same as running it: skip the goroutine handoff. The
		// conversation is still bounded by the kernel's deadline.
		k.runClusterFlight(f, obj, pager, anchor)
	} else {
		go k.runClusterFlight(f, obj, pager, anchor)
	}
	return k.resolveFlight(ctx, obj, offset, f)
}

// SetPagerFallback selects the object's degradation policy for pager
// failures (timeouts and errors other than ErrDataUnavailable).
func (o *Object) SetPagerFallback(fb PagerFallback) {
	o.fallback.Store(int32(fb))
}

// PagerFallback returns the object's degradation policy.
func (o *Object) PagerFallback() PagerFallback {
	return PagerFallback(o.fallback.Load())
}
