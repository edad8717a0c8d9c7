package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"machvm/internal/hw"
	"machvm/internal/trace"
	"machvm/internal/vmtypes"
)

// Pager errors. The kernel↔pager boundary is error-returning and
// context-aware: a pager that is slow, hung or crashed surfaces a bounded
// error instead of wedging the faulting thread or the pageout daemon.
var (
	// ErrDataUnavailable is the error a Pager returns from DataRequest
	// when it holds no data for the range (pager_data_unavailable); the
	// kernel continues down the shadow chain or zero-fills. It is a
	// definitive answer, never retried.
	ErrDataUnavailable = errors.New("pager: data unavailable")

	// ErrPagerTimeout is wrapped into the error returned when a pager
	// conversation exceeded the kernel's configured deadline (including
	// retries). How it surfaces to the faulter is governed by the
	// object's fallback policy (see PagerFallback).
	ErrPagerTimeout = errors.New("pager: request timed out")

	// ErrPagerFailed is wrapped, together with the pager's own error,
	// into the error returned when a pager conversation kept failing
	// until its retries ran out (inside the deadline).
	ErrPagerFailed = errors.New("pager: request failed")
)

// Pager is the kernel-side view of a memory manager. An important feature
// of Mach's virtual memory is that page faults and page-out requests can
// be handled outside the kernel (§3.3): the kernel translates a fault into
// a request for data from whatever task manages the object. The message
// protocol of Tables 3-1/3-2 lives in internal/pager; at this layer the
// conversation appears as synchronous calls, because the faulting thread
// blocks until pager_data_provided arrives anyway.
//
// Because the task servicing the object may be untrusted, slow or dead,
// every data call takes a context carrying the kernel's deadline and
// returns an error. The kernel wraps each call with its PagerPolicy
// (deadline, bounded retries with exponential backoff) and applies the
// object's fallback policy when the pager ultimately fails.
type Pager interface {
	// Name identifies the pager for diagnostics.
	Name() string

	// Init introduces a memory object to the pager (pager_init).
	Init(obj *Object)

	// DataRequest asks for [offset, offset+length) of the object
	// (pager_data_request). It returns the data, or ErrDataUnavailable if
	// the pager has none (pager_data_unavailable), in which case the
	// kernel zero-fills. A short read is legal: the kernel zero-fills the
	// tail. Implementations should honor ctx cancellation promptly; the
	// kernel abandons callers at the deadline either way.
	DataRequest(ctx context.Context, obj *Object, offset uint64, length int) ([]byte, error)

	// DataWrite returns modified data to the pager (pager_data_write,
	// issued by the pageout daemon). data is only valid for the duration
	// of the call — the kernel recycles the buffer — so an implementation
	// that keeps the bytes must copy them. On error the kernel keeps the
	// page dirty and resident (or degrades per the object's fallback
	// policy), so returning an error never loses data silently.
	DataWrite(ctx context.Context, obj *Object, offset uint64, data []byte) error

	// Terminate tells the pager the kernel is done with the object.
	Terminate(obj *Object)
}

// PagerPolicy bounds every kernel→pager conversation (per kernel,
// Config.Pager). The zero value selects defaults; negative values disable
// the corresponding bound explicitly.
type PagerPolicy struct {
	// Deadline is the overall wall-clock budget for one logical request,
	// including every retry and backoff sleep. 0 selects the default
	// (2s); negative means no deadline (a hung pager then relies solely
	// on caller-context cancellation — the pre-redesign behaviour).
	Deadline time.Duration
	// Retries is the number of additional attempts after a failed one
	// (errors other than ErrDataUnavailable). 0 selects the default (2);
	// negative means no retries.
	Retries int
	// BackoffBase is the sleep before the first retry; it doubles per
	// retry up to BackoffMax. 0 selects defaults (2ms base, 250ms max).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// DefaultPagerPolicy returns the policy used when Config.Pager is zero.
func DefaultPagerPolicy() PagerPolicy {
	return PagerPolicy{
		Deadline:    2 * time.Second,
		Retries:     2,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  250 * time.Millisecond,
	}
}

// normalize resolves the zero-value defaults and negative sentinels.
func (p PagerPolicy) normalize() PagerPolicy {
	def := DefaultPagerPolicy()
	if p.Deadline == 0 {
		p.Deadline = def.Deadline
	} else if p.Deadline < 0 {
		p.Deadline = 0 // no deadline
	}
	if p.Retries == 0 {
		p.Retries = def.Retries
	} else if p.Retries < 0 {
		p.Retries = 0
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = def.BackoffBase
	}
	if p.BackoffMax <= 0 {
		p.BackoffMax = def.BackoffMax
	}
	return p
}

// SetPagerPolicy replaces the kernel's pager deadline/retry policy (it
// normalizes defaults exactly as Config.Pager does). Calls already in
// flight keep the policy they started with.
func (k *Kernel) SetPagerPolicy(p PagerPolicy) {
	p = p.normalize()
	k.pagerPolicy.Store(&p)
}

// PagerPolicy returns the kernel's current pager policy.
func (k *Kernel) PagerPolicy() PagerPolicy { return *k.pagerPolicy.Load() }

// pagerCall runs one logical pager conversation under the kernel's policy:
// an overall deadline spanning bounded retries with exponential backoff.
// ErrDataUnavailable is definitive and returned as-is; exhaustion of the
// deadline is classified as ErrPagerTimeout, exhaustion of the retries as
// ErrPagerFailed wrapping the last cause. The op string labels errors. dc is
// a zero deadlineCtx for this conversation alone (a read's lives in its flight).
func (k *Kernel) pagerCall(dc *deadlineCtx, pager Pager, op string, call func(context.Context) ([]byte, error)) ([]byte, error) {
	pol := k.PagerPolicy()
	ctx := context.Background()
	if pol.Deadline > 0 {
		dc.deadline = time.Now().Add(pol.Deadline)
		defer dc.finish()
		ctx = dc
	}
	backoff := pol.BackoffBase
	for attempt := 0; ; attempt++ {
		data, err := call(ctx)
		if err == nil {
			return data, nil
		}
		if errors.Is(err, ErrDataUnavailable) {
			return nil, err
		}
		k.stats.PagerErrors.Add(1)
		timedOut := ctx.Err() != nil || errors.Is(err, context.DeadlineExceeded)
		if timedOut {
			k.stats.PagerTimeouts.Add(1)
			return nil, fmt.Errorf("%w: %s %s after %d attempt(s): %v",
				ErrPagerTimeout, pager.Name(), op, attempt+1, err)
		}
		if attempt >= pol.Retries {
			return nil, fmt.Errorf("%w: %s %s after %d attempt(s): %w",
				ErrPagerFailed, pager.Name(), op, attempt+1, err)
		}
		// Back off before the retry, still bounded by the deadline.
		k.stats.PagerRetries.Add(1)
		t := time.NewTimer(backoff)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			k.stats.PagerTimeouts.Add(1)
			return nil, fmt.Errorf("%w: %s %s deadline during retry backoff: %v",
				ErrPagerTimeout, pager.Name(), op, err)
		}
		backoff *= 2
		if backoff > pol.BackoffMax {
			backoff = pol.BackoffMax
		}
	}
}

// pagerRequestData is DataRequest under the kernel policy.
func (k *Kernel) pagerRequestData(dc *deadlineCtx, pager Pager, obj *Object, offset uint64, length int) ([]byte, error) {
	data, err := k.pagerCall(dc, pager, "data_request", func(ctx context.Context) ([]byte, error) {
		return pager.DataRequest(ctx, obj, offset, length)
	})
	k.traceObserve(trace.EvPagerRead, trace.Event{
		Obj: obj.ID(), Addr: offset, Size: uint64(length),
		Ret: uint64(len(data)), Err: traceErr(err),
	})
	return data, err
}

// pagerWriteData is DataWrite under the kernel policy.
func (k *Kernel) pagerWriteData(pager Pager, obj *Object, offset uint64, data []byte) error {
	_, err := k.pagerCall(new(deadlineCtx), pager, "data_write", func(ctx context.Context) ([]byte, error) {
		return nil, pager.DataWrite(ctx, obj, offset, data)
	})
	k.traceObserve(trace.EvPagerWrite, trace.Event{
		Obj: obj.ID(), Addr: offset, Size: uint64(len(data)),
		Err: traceErr(err),
	})
	return err
}

// memorySwapPager is the built-in default pager used when no filesystem-
// backed inode pager has been configured. It stores paged-out data per
// object in page-granule chunks, charging disk costs so that paging is not
// free. The chunking matters for clustered reads: a multi-page DataRequest
// returns the contiguous run of chunks actually written starting at the
// requested offset, and stops at the first gap — a never-written neighbor
// must fall through the shadow chain, not read back as zeroes. The
// per-object index makes Terminate an O(object) purge — a terminated
// object's entries (and the dead *Object key) can never linger in the
// store.
//
// Zero-page elision: a full-page DataWrite of all zeroes stores a shared
// zero-length sentinel chunk instead of a 4KB copy, and DataRequest
// reconstitutes the zeroes on the way out. Sparse workloads (mostly-zero
// heaps paged out under pressure) therefore cost the store almost nothing,
// and the elided pages skip the per-KB transfer charge — only the
// per-operation latency remains.
type memorySwapPager struct {
	machine  *hw.Machine
	pageSize uint64
	zero     []byte // shared all-zero page for sentinel reconstitution
	stats    *Stats // kernel counters (SwapZeroPages); never nil

	mu    sync.Mutex
	store map[*Object]map[uint64][]byte
}

// swapZeroChunk is the stored sentinel for an elided all-zero page. Only
// full-page chunks are elided, so a zero length is unambiguous.
var swapZeroChunk = []byte{}

func newMemorySwapPager(m *hw.Machine, pageSize uint64, stats *Stats) *memorySwapPager {
	return &memorySwapPager{
		machine:  m,
		pageSize: pageSize,
		zero:     make([]byte, pageSize),
		stats:    stats,
		store:    make(map[*Object]map[uint64][]byte),
	}
}

func (s *memorySwapPager) Name() string { return "default-swap" }

func (s *memorySwapPager) Init(obj *Object) {}

func (s *memorySwapPager) DataRequest(ctx context.Context, obj *Object, offset uint64, length int) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	chunks := s.store[obj]
	first, ok := chunks[offset]
	if !ok {
		s.mu.Unlock()
		return nil, ErrDataUnavailable
	}
	// A zero-length chunk is the elided-zero-page sentinel: reconstitute a
	// full page of zeroes in its place. Elided pages also skip the per-KB
	// transfer charge below — they were never really moved.
	data := make([]byte, 0, length)
	elided := 0
	appendChunk := func(chunk []byte) {
		if len(chunk) == 0 {
			data = append(data, s.zero...)
			elided++
			return
		}
		data = append(data, chunk...)
	}
	appendChunk(first)
	for next := offset + s.pageSize; len(data) < length; next += s.pageSize {
		chunk, ok := chunks[next]
		if !ok {
			break
		}
		appendChunk(chunk)
	}
	s.mu.Unlock()
	if len(data) > length {
		data = data[:length]
	}
	s.machine.Charge(s.machine.Cost.DiskLatency)
	moved := len(data) - elided*int(s.pageSize)
	if moved > 0 {
		s.machine.ChargeKB(s.machine.Cost.DiskPerKB, moved)
	}
	return data, nil
}

func (s *memorySwapPager) DataWrite(ctx context.Context, obj *Object, offset uint64, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	m := s.store[obj]
	if m == nil {
		m = make(map[uint64][]byte)
		s.store[obj] = m
	}
	moved := 0
	for lo := uint64(0); lo < uint64(len(data)); lo += s.pageSize {
		hi := lo + s.pageSize
		if hi > uint64(len(data)) {
			hi = uint64(len(data))
		}
		chunk := data[lo:hi]
		// Zero-page elision: a full page of zeroes stores the shared
		// sentinel instead of a 4KB copy and skips the transfer charge.
		if hi-lo == s.pageSize && vmtypes.IsZero(chunk) {
			m[offset+lo] = swapZeroChunk
			s.stats.SwapZeroPages.Add(1)
			continue
		}
		cp := make([]byte, hi-lo)
		copy(cp, chunk)
		m[offset+lo] = cp
		moved += len(cp)
	}
	s.mu.Unlock()
	s.machine.Charge(s.machine.Cost.DiskLatency)
	if moved > 0 {
		s.machine.ChargeKB(s.machine.Cost.DiskPerKB, moved)
	}
	return nil
}

func (s *memorySwapPager) Terminate(obj *Object) {
	s.mu.Lock()
	delete(s.store, obj)
	s.mu.Unlock()
}

// storedObjects reports how many objects hold swap entries (leak tests).
func (s *memorySwapPager) storedObjects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.store)
}
