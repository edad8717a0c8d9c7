// Package core implements the machine-independent half of the Mach virtual
// memory system: the four basic data structures of the paper's §3 —
// the resident page table, the address map, the memory object and (through
// the pmap interface) the physical map — plus the fault handler, the
// paging daemon, sharing maps, shadow-object garbage collection and the
// user-visible VM operations of Table 2-1.
//
// All information important to the management of virtual memory lives
// here, in machine-independent structures; the machine-dependent modules
// under internal/pmap hold only the mappings needed to run the current mix
// of programs and may discard them at will.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"machvm/internal/hw"
	"machvm/internal/measure"
	"machvm/internal/pmap"
	"machvm/internal/trace"
	"machvm/internal/vmtypes"
)

// Kernel is the machine-independent VM system for one machine.
type Kernel struct {
	machine *hw.Machine
	mod     pmap.Module

	// pageSize is the Mach page size: a boot-time parameter, any
	// power-of-two multiple of the hardware page size (§3.1).
	pageSize uint64
	hwRatio  int // hardware pages per Mach page

	// The resident page table is lock-striped (DESIGN.md §7): the
	// object/offset hash and busy-page wait channels are split across
	// numPageShards shards, each pageable queue carries its own lock,
	// and the free count is an atomic so pageout-trigger checks never
	// lock. Free pages live in per-shard magazines over a global depot;
	// the depot lock is touched only for batched exchanges. Lock order:
	// object → shard → queue/magazine → depot; never two shards, never
	// two magazines.
	shards    [numPageShards]pageShard
	pages     []*Page
	magazines [numPageShards]pageMagazine
	depot     lockedQueue
	active    lockedQueue
	inactive  lockedQueue
	freeCount atomic.Int64

	// Pageout tuning: the daemon runs when free pages drop below
	// freeMin and aims for freeTarget.
	freeMin    int
	freeTarget int

	// pageoutWake carries demand wakeups from allocPage to the pageout
	// daemon (capacity 1; a full buffer means one is already pending).
	// Scans are single-flight: scanFlight, guarded by scanMu, is the
	// in-progress scan that late requesters wait on instead of running
	// a redundant scan of their own.
	pageoutWake chan struct{}
	scanMu      sync.Mutex
	scanFlight  *scanFlight

	cache objectCache

	// disableHints and prewarmFork hold the ablation switches.
	disableHints bool
	prewarmFork  bool

	// swap is the pager of last resort for internal objects being
	// paged out (the paper's default pager).
	swap Pager

	// pagerPolicy bounds every kernel→pager conversation (deadline,
	// retries, backoff): loaded once per conversation, replaced whole and
	// already normalized by SetPagerPolicy.
	pagerPolicy atomic.Pointer[PagerPolicy]

	// pageBufs recycles page-sized staging buffers for pageout and
	// clean requests. Safe because no Pager retains the DataWrite slice
	// beyond the call (see the Pager interface contract).
	pageBufs sync.Pool
	// runBufs recycles the multi-page staging buffers behind clustered
	// pageout writes; pfnBufs and claimBufs recycle the PFN and page
	// scratch slices of range enters and span promotion, keeping the
	// fault path allocation-free.
	runBufs   sync.Pool
	pfnBufs   sync.Pool
	claimBufs sync.Pool
	// objectPool recycles the fault path's internal objects — lazy
	// anonymous zero-fill memory and COW shadows — between termination
	// and the next fault that needs one (see newPooledObject).
	objectPool sync.Pool

	// tracer, when non-nil, receives every externally visible event (map
	// ops, faults, pager conversations, pageout decisions) as a
	// deterministic stream stamped with the virtual clock. The disabled
	// cost on hot paths is one atomic pointer load and a branch.
	tracer atomic.Pointer[trace.Log]

	// mapIDs and objectIDs issue the stable per-kernel identifiers that
	// trace events use to name maps and objects, and that seed the treap
	// priority streams and the page-shard hash. Per-kernel (not global)
	// so two identically driven kernels assign identical IDs.
	mapIDs    atomic.Uint64
	objectIDs atomic.Uint64

	stats Stats

	// faultLatency is the per-fault virtual-nanosecond latency histogram
	// behind SLOReport. Recording is wait-free and allocation-free, so it
	// rides the fault path without disturbing the zero-allocs gate; it is
	// deliberately not part of Stats so trace footers stay unchanged.
	faultLatency measure.Histogram
}

// getPageBuf returns a zero-capable page-sized scratch buffer; return it
// with putPageBuf once the pager call it fed has returned.
func (k *Kernel) getPageBuf() []byte {
	if b, ok := k.pageBufs.Get().(*[]byte); ok {
		return *b
	}
	return make([]byte, k.pageSize)
}

func (k *Kernel) putPageBuf(b []byte) {
	k.pageBufs.Put(&b)
}

// getRunBuf returns a scratch buffer of at least n bytes for a clustered
// pageout write; return it with putRunBuf after the pager call returns.
func (k *Kernel) getRunBuf(n int) *[]byte {
	b, _ := k.runBufs.Get().(*[]byte)
	if b == nil || cap(*b) < n {
		s := make([]byte, n)
		b = &s
	}
	*b = (*b)[:n]
	return b
}

func (k *Kernel) putRunBuf(b *[]byte) { k.runBufs.Put(b) }

// getPFNBuf returns a PFN scratch slice with capacity for at least n
// frames, for EnterRange argument marshalling.
func (k *Kernel) getPFNBuf(n int) *[]vmtypes.PFN {
	b, _ := k.pfnBufs.Get().(*[]vmtypes.PFN)
	if b == nil || cap(*b) < n {
		s := make([]vmtypes.PFN, n)
		b = &s
	}
	*b = (*b)[:n]
	return b
}

func (k *Kernel) putPFNBuf(b *[]vmtypes.PFN) { k.pfnBufs.Put(b) }

// getClaimBuf returns a page-pointer scratch slice for span promotion's
// try-claim pass; putClaimBuf clears it (no page leaks past the return).
func (k *Kernel) getClaimBuf(n int) *[]*Page {
	b, _ := k.claimBufs.Get().(*[]*Page)
	if b == nil || cap(*b) < n {
		s := make([]*Page, n)
		b = &s
	}
	*b = (*b)[:n]
	return b
}

func (k *Kernel) putClaimBuf(b *[]*Page) {
	for i := range *b {
		(*b)[i] = nil
	}
	k.claimBufs.Put(b)
}

// Config configures a kernel.
type Config struct {
	// Machine is the simulated hardware.
	Machine *hw.Machine
	// Module is the machine-dependent pmap module.
	Module pmap.Module
	// PageSize is the Mach page size; 0 selects the smallest legal
	// value of at least 4096 bytes. It must be a power-of-two multiple
	// of the hardware page size.
	PageSize int
	// ObjectCacheSize bounds the cache of unreferenced persistent
	// memory objects; 0 selects a default.
	ObjectCacheSize int
	// FreeTarget and FreeMin tune the paging daemon; 0 selects
	// proportional defaults.
	FreeTarget int
	FreeMin    int
	// DisableMapHints turns off the §3.2 last-fault hints (for the
	// ablation benchmarks).
	DisableMapHints bool
	// PrewarmFork uses the optional pmap_copy routine (Table 3-4), when
	// the module implements it, to duplicate the parent's hardware
	// mappings into the child at fork: the child avoids refaults at the
	// price of a longer fork.
	PrewarmFork bool
	// Pager bounds every kernel→pager conversation; the zero value
	// selects DefaultPagerPolicy.
	Pager PagerPolicy
}

// ErrConfig wraps every configuration error returned by NewKernel.
var ErrConfig = fmt.Errorf("core: invalid config")

// NewKernel boots the machine-independent VM layer. It returns an error
// (wrapping ErrConfig) when the configuration is unusable.
func NewKernel(cfg Config) (*Kernel, error) {
	if cfg.Machine == nil || cfg.Module == nil {
		return nil, fmt.Errorf("%w: Config needs Machine and Module", ErrConfig)
	}
	hwPage := cfg.Machine.Mem.PageSize()
	pageSize := cfg.PageSize
	if pageSize == 0 {
		pageSize = hwPage
		for pageSize < 4096 {
			pageSize *= 2
		}
	}
	if pageSize < hwPage || !vmtypes.IsPowerOfTwo(uint64(pageSize)) || pageSize%hwPage != 0 {
		return nil, fmt.Errorf("%w: Mach page size %d must be a power-of-two multiple of the hardware page size %d", ErrConfig, pageSize, hwPage)
	}
	k := &Kernel{
		machine:     cfg.Machine,
		mod:         cfg.Module,
		pageSize:    uint64(pageSize),
		hwRatio:     pageSize / hwPage,
		pageoutWake: make(chan struct{}, 1),
	}
	k.SetPagerPolicy(cfg.Pager)
	k.initResidentPages()
	// The object/offset hash is sized once, here: at least two buckets per
	// resident page across the shards, so chains stay short however the
	// pages end up distributed.
	buckets := 1
	for buckets*numPageShards < 2*len(k.pages) {
		buckets *= 2
	}
	for i := range k.shards {
		k.shards[i].buckets = make([]*Page, buckets)
		k.shards[i].waiters = make(map[pageKey]chan struct{}, 4)
	}
	k.prewarmPools()
	if cfg.FreeTarget > 0 {
		k.freeTarget = cfg.FreeTarget
	} else {
		k.freeTarget = len(k.pages) / 16
		if k.freeTarget < 4 {
			k.freeTarget = 4
		}
	}
	if cfg.FreeMin > 0 {
		k.freeMin = cfg.FreeMin
	} else {
		k.freeMin = k.freeTarget / 2
		if k.freeMin < 2 {
			k.freeMin = 2
		}
	}
	size := cfg.ObjectCacheSize
	if size == 0 {
		size = 64
	}
	k.cache.init(size)
	k.disableHints = cfg.DisableMapHints
	k.prewarmFork = cfg.PrewarmFork
	k.swap = newMemorySwapPager(k.machine, k.pageSize, &k.stats)
	return k, nil
}

// prewarmPools primes the fault path's recycling layers at boot so the
// very first faults already run with the steady-state allocation
// profile: a few pooled objects, pageout staging buffers, and the PFN
// and page scratch slices behind range enters and span promotion. The
// sizes match the largest consumers (maxClusterPages-page pageout runs,
// a 16-Mach-page superpage span); getRunBuf and friends grow a buffer
// that turns out too small, so these are floors, not limits.
func (k *Kernel) prewarmPools() {
	const (
		warmObjects  = 4
		warmSpan     = 64 // Mach pages in the largest superpage span (a full VAX chunk)
		warmPageBufs = 2
	)
	for i := 0; i < warmObjects; i++ {
		o := &Object{}
		o.pooled = true
		k.objectPool.Put(o)
	}
	for i := 0; i < warmPageBufs; i++ {
		b := make([]byte, k.pageSize)
		k.pageBufs.Put(&b)
	}
	run := make([]byte, maxClusterPages*int(k.pageSize))
	k.runBufs.Put(&run)
	pfns := make([]vmtypes.PFN, warmSpan*k.hwRatio)
	k.pfnBufs.Put(&pfns)
	claims := make([]*Page, warmSpan)
	k.claimBufs.Put(&claims)
}

// MustNewKernel is NewKernel, panicking on configuration errors — the
// pre-error-API behaviour, convenient in tests and examples.
func MustNewKernel(cfg Config) *Kernel {
	k, err := NewKernel(cfg)
	if err != nil {
		panic(err)
	}
	return k
}

// initResidentPages builds the resident page table: one entry per Mach
// page of usable physical memory. A Mach page is usable only if all of its
// hardware frames are populated (no SUN 3 display-memory holes) and lie
// below the module's physical addressing limit (the NS32082's 32MB cap).
func (k *Kernel) initResidentPages() {
	mem := k.machine.Mem
	limit := k.mod.MaxFrames()
	machPages := mem.NumFrames() / k.hwRatio
	for mp := 0; mp < machPages; mp++ {
		first := vmtypes.PFN(mp * k.hwRatio)
		usable := true
		for i := 0; i < k.hwRatio; i++ {
			f := first + vmtypes.PFN(i)
			if int(f) >= limit || !mem.Valid(f) {
				usable = false
				break
			}
		}
		if !usable {
			continue
		}
		p := &Page{pfn: first}
		k.pages = append(k.pages, p)
		k.depot.q.pushBack(p)
		p.queue = queueFree
	}
	k.freeCount.Store(int64(k.depot.q.count))
}

// Machine returns the simulated hardware.
func (k *Kernel) Machine() *hw.Machine { return k.machine }

// Module returns the machine-dependent pmap module.
func (k *Kernel) Module() pmap.Module { return k.mod }

// PageSize returns the Mach page size in bytes.
func (k *Kernel) PageSize() uint64 { return k.pageSize }

// SetSwapPager replaces the default pager used to back internal objects at
// pageout time (e.g. with the inode pager once a filesystem exists).
func (k *Kernel) SetSwapPager(p Pager) { k.swap = p }

// SwapPager returns the current default pager.
func (k *Kernel) SwapPager() Pager { return k.swap }

// TotalPages returns the number of usable Mach pages of physical memory.
func (k *Kernel) TotalPages() int { return len(k.pages) }

// roundPage and truncPage align addresses to Mach page boundaries — the
// only restriction Mach imposes on regions (§2.1).
func (k *Kernel) roundPage(v uint64) uint64 { return vmtypes.RoundUp(v, k.pageSize) }
func (k *Kernel) truncPage(v uint64) uint64 { return vmtypes.RoundDown(v, k.pageSize) }
