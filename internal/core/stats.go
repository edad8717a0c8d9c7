package core

import "sync/atomic"

// Stats are the machine-independent VM counters, the basis of
// vm_statistics (Table 2-1).
type Stats struct {
	Faults            atomic.Uint64 // total vm_fault calls
	ZeroFillFaults    atomic.Uint64 // faults satisfied by zero fill
	CowFaults         atomic.Uint64 // faults that copied a page
	ReactivateHits    atomic.Uint64 // faults satisfied by a resident page
	Pageins           atomic.Uint64 // pages filled from a pager
	Pageouts          atomic.Uint64 // pages written to a pager
	PageoutsWanted    atomic.Uint64 // times free memory dipped below min
	PageoutWakes      atomic.Uint64 // demand wakeups delivered to the daemon
	PageoutScanJoins  atomic.Uint64 // scan requests that waited on an in-flight scan
	PagesAllocated    atomic.Uint64
	PagesFreed        atomic.Uint64
	MagazineHits      atomic.Uint64 // page grabs satisfied by the shard's own magazine
	DepotRefills      atomic.Uint64 // batched magazine refills from the depot
	DepotDrains       atomic.Uint64 // batched magazine drains back to the depot
	MagazineSteals    atomic.Uint64 // exhaustion-path grabs from a sibling magazine
	BusyWaits         atomic.Uint64 // faults that blocked on a busy page
	AllocRaces        atomic.Uint64 // allocations that lost an install race
	ShardRetries      atomic.Uint64 // shard locks retried after identity change
	PageoutSkips      atomic.Uint64 // stale pageout candidates skipped on revalidation
	ObjectsCreated    atomic.Uint64
	ObjectsTerminated atomic.Uint64
	ShadowsCreated    atomic.Uint64
	ShadowsCollapsed  atomic.Uint64
	CacheRevives      atomic.Uint64
	MapHintHits       atomic.Uint64
	MapHintMisses     atomic.Uint64 // lookups that fell through to the index
	MapLookups        atomic.Uint64
	FaultRetries      atomic.Uint64 // faults restarted after a map version change
	ShareMapsMade     atomic.Uint64
	PagerTimeouts     atomic.Uint64 // pager conversations that exhausted the deadline
	PagerRetries      atomic.Uint64 // pager calls reissued after a retryable error
	PagerErrors       atomic.Uint64 // pager calls that returned an error (excl. unavailable)
	PagerFallbacks    atomic.Uint64 // failures degraded per the object's fallback policy
	PagerFlightJoins  atomic.Uint64 // faulters that joined an in-flight pager request
	PagerAbandons     atomic.Uint64 // faulters whose context fired while a request was in flight
	PageoutWriteFails atomic.Uint64 // DataWrite failures that kept the page dirty and resident
	PagerRoundTrips   atomic.Uint64 // DataRequest conversations issued (clustered or single)
	ClusterExtras     atomic.Uint64 // readahead pages installed beyond the faulting page
	PageoutRuns       atomic.Uint64 // DataWrite conversations issued by the pageout daemon
	PageoutRunPages   atomic.Uint64 // dirty pages carried by those DataWrites
	SpanPromotions    atomic.Uint64 // whole-span EnterRange promotions driven by faults

	// Tiered-paging counters. The Ztier* counters are bumped by the
	// compressed swap tier (internal/pager/ztier) when it is wired to this
	// kernel's Stats; the Tier* and SwapZeroPages counters by the kernel
	// itself.
	ZtierHits            atomic.Uint64 // DataRequests served from the compressed pool
	ZtierMisses          atomic.Uint64 // DataRequests that fell through to the backing tier
	ZtierStoredBytes     atomic.Uint64 // uncompressed bytes accepted into the pool (cumulative)
	ZtierCompressedBytes atomic.Uint64 // compressed bytes those stores occupied (cumulative)
	ZtierEvictions       atomic.Uint64 // blobs written back to the backing tier by the pool
	ZtierBypasses        atomic.Uint64 // pages routed straight to the backing tier (incompressible or cold)
	TierPromotions       atomic.Uint64 // auto-tier objects pinned hot by refault pressure
	TierDemotions        atomic.Uint64 // auto-tier objects demoted cold (eviction stream, no refaults)
	SwapZeroPages        atomic.Uint64 // all-zero pages the default pager elided to a sentinel
}

// Stats returns the kernel's counters.
func (k *Kernel) Stats() *Stats { return &k.stats }

// StatsSnapshot is Stats with every counter captured into a plain field.
// Field set and order mirror Stats exactly (enforced by a reflection test).
type StatsSnapshot struct {
	Faults            uint64
	ZeroFillFaults    uint64
	CowFaults         uint64
	ReactivateHits    uint64
	Pageins           uint64
	Pageouts          uint64
	PageoutsWanted    uint64
	PageoutWakes      uint64
	PageoutScanJoins  uint64
	PagesAllocated    uint64
	PagesFreed        uint64
	MagazineHits      uint64
	DepotRefills      uint64
	DepotDrains       uint64
	MagazineSteals    uint64
	BusyWaits         uint64
	AllocRaces        uint64
	ShardRetries      uint64
	PageoutSkips      uint64
	ObjectsCreated    uint64
	ObjectsTerminated uint64
	ShadowsCreated    uint64
	ShadowsCollapsed  uint64
	CacheRevives      uint64
	MapHintHits       uint64
	MapHintMisses     uint64
	MapLookups        uint64
	FaultRetries      uint64
	ShareMapsMade     uint64
	PagerTimeouts     uint64
	PagerRetries      uint64
	PagerErrors       uint64
	PagerFallbacks    uint64
	PagerFlightJoins  uint64
	PagerAbandons     uint64
	PageoutWriteFails uint64
	PagerRoundTrips   uint64
	ClusterExtras     uint64
	PageoutRuns       uint64
	PageoutRunPages   uint64
	SpanPromotions    uint64

	ZtierHits            uint64
	ZtierMisses          uint64
	ZtierStoredBytes     uint64
	ZtierCompressedBytes uint64
	ZtierEvictions       uint64
	ZtierBypasses        uint64
	TierPromotions       uint64
	TierDemotions        uint64
	SwapZeroPages        uint64
}

// Snapshot captures every counter at once into a plain struct. Use this —
// not a sequence of individual Load calls — whenever more than one counter
// feeds a decision or an assertion: reading live atomics one by one while
// daemons run yields torn cross-counter views (a pagein counted but not
// yet its round trip), which is exactly the flakiness that breaks
// "replayed stats == recorded stats". The snapshot itself is not an atomic
// cut either (Go offers none across 50 counters), but it is taken at one
// point in the code, so quiesced kernels — and record/replay, which only
// snapshots after the event stream is complete — get a stable view.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Faults:            s.Faults.Load(),
		ZeroFillFaults:    s.ZeroFillFaults.Load(),
		CowFaults:         s.CowFaults.Load(),
		ReactivateHits:    s.ReactivateHits.Load(),
		Pageins:           s.Pageins.Load(),
		Pageouts:          s.Pageouts.Load(),
		PageoutsWanted:    s.PageoutsWanted.Load(),
		PageoutWakes:      s.PageoutWakes.Load(),
		PageoutScanJoins:  s.PageoutScanJoins.Load(),
		PagesAllocated:    s.PagesAllocated.Load(),
		PagesFreed:        s.PagesFreed.Load(),
		MagazineHits:      s.MagazineHits.Load(),
		DepotRefills:      s.DepotRefills.Load(),
		DepotDrains:       s.DepotDrains.Load(),
		MagazineSteals:    s.MagazineSteals.Load(),
		BusyWaits:         s.BusyWaits.Load(),
		AllocRaces:        s.AllocRaces.Load(),
		ShardRetries:      s.ShardRetries.Load(),
		PageoutSkips:      s.PageoutSkips.Load(),
		ObjectsCreated:    s.ObjectsCreated.Load(),
		ObjectsTerminated: s.ObjectsTerminated.Load(),
		ShadowsCreated:    s.ShadowsCreated.Load(),
		ShadowsCollapsed:  s.ShadowsCollapsed.Load(),
		CacheRevives:      s.CacheRevives.Load(),
		MapHintHits:       s.MapHintHits.Load(),
		MapHintMisses:     s.MapHintMisses.Load(),
		MapLookups:        s.MapLookups.Load(),
		FaultRetries:      s.FaultRetries.Load(),
		ShareMapsMade:     s.ShareMapsMade.Load(),
		PagerTimeouts:     s.PagerTimeouts.Load(),
		PagerRetries:      s.PagerRetries.Load(),
		PagerErrors:       s.PagerErrors.Load(),
		PagerFallbacks:    s.PagerFallbacks.Load(),
		PagerFlightJoins:  s.PagerFlightJoins.Load(),
		PagerAbandons:     s.PagerAbandons.Load(),
		PageoutWriteFails: s.PageoutWriteFails.Load(),
		PagerRoundTrips:   s.PagerRoundTrips.Load(),
		ClusterExtras:     s.ClusterExtras.Load(),
		PageoutRuns:       s.PageoutRuns.Load(),
		PageoutRunPages:   s.PageoutRunPages.Load(),
		SpanPromotions:    s.SpanPromotions.Load(),

		ZtierHits:            s.ZtierHits.Load(),
		ZtierMisses:          s.ZtierMisses.Load(),
		ZtierStoredBytes:     s.ZtierStoredBytes.Load(),
		ZtierCompressedBytes: s.ZtierCompressedBytes.Load(),
		ZtierEvictions:       s.ZtierEvictions.Load(),
		ZtierBypasses:        s.ZtierBypasses.Load(),
		TierPromotions:       s.TierPromotions.Load(),
		TierDemotions:        s.TierDemotions.Load(),
		SwapZeroPages:        s.SwapZeroPages.Load(),
	}
}

// Statistics is the snapshot returned by vm_statistics (Table 2-1): every
// counter of StatsSnapshot plus the gauges only a kernel can read.
type Statistics struct {
	StatsSnapshot
	PageSize       uint64
	FreeCount      int
	ActiveCount    int
	InactiveCount  int
	WireCount      int
	ObjectCacheLen int
}

// VMStatistics implements vm_statistics: statistics about the use of
// memory by the system.
func (k *Kernel) VMStatistics() Statistics {
	wired := 0
	for _, p := range k.pages {
		if p.wireCount.Load() > 0 {
			wired++
		}
	}
	return Statistics{
		StatsSnapshot:  k.stats.Snapshot(),
		PageSize:       k.pageSize,
		FreeCount:      k.FreeCount(),
		ActiveCount:    k.ActiveCount(),
		InactiveCount:  k.InactiveCount(),
		WireCount:      wired,
		ObjectCacheLen: k.CachedObjects(),
	}
}
