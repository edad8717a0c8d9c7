package ztier_test

// Kernel-integration tests for the compressed tier: hits must complete
// with zero backing-pager round trips, evictions must land in the backing
// store as clustered writes without losing data, FallbackSwap retargeting
// must purge the tier instead of stranding blobs, and the whole stack
// must stay race-clean under concurrent faults, failures and teardown.

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/pager"
	"machvm/internal/pager/ztier"
	"machvm/internal/pmap"
	"machvm/internal/pmap/vax"
	"machvm/internal/vmtypes"
)

const pgsz = 4096

// newTierKernel builds a VAX kernel whose pageout scans always reclaim
// everything (unreachable free target), the harness eviction tests use to
// force pages out to their pagers deterministically.
func newTierKernel(t testing.TB, cpus, frames int) (*core.Kernel, *hw.Machine) {
	t.Helper()
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: frames,
		CPUs:       cpus,
		TLBSize:    64,
	})
	mod := vax.New(machine, pmap.ShootImmediate)
	k := core.MustNewKernel(core.Config{
		Machine:    machine,
		Module:     mod,
		PageSize:   pgsz,
		FreeTarget: frames + 1, // more than exists: scans always reclaim
		FreeMin:    2,
	})
	return k, machine
}

// memBacking is the slow tier for these tests: an in-memory store with
// the default pager's contiguous-run DataRequest semantics, optional
// disk-cost charging, and call counters.
type memBacking struct {
	machine *hw.Machine // when set, charge disk costs per conversation
	delayNS int64       // extra virtual latency per conversation

	mu       sync.Mutex
	store    map[*core.Object]map[uint64][]byte
	writeLen []int

	requests atomic.Uint64
	writes   atomic.Uint64
}

func newMemBacking(machine *hw.Machine) *memBacking {
	return &memBacking{machine: machine, store: make(map[*core.Object]map[uint64][]byte)}
}

func (b *memBacking) Name() string        { return "membacking" }
func (b *memBacking) Init(o *core.Object) {}
func (b *memBacking) chargeDisk(bytes int) {
	if b.machine != nil {
		b.machine.Charge(b.machine.Cost.DiskLatency + b.delayNS)
		b.machine.ChargeKB(b.machine.Cost.DiskPerKB, bytes)
	}
}

func (b *memBacking) DataRequest(ctx context.Context, o *core.Object, off uint64, n int) ([]byte, error) {
	b.requests.Add(1)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	chunks := b.store[o]
	first, ok := chunks[off]
	if !ok {
		b.mu.Unlock()
		return nil, core.ErrDataUnavailable
	}
	data := append(make([]byte, 0, n), first...)
	for next := off + pgsz; len(data) < n; next += pgsz {
		c, ok := chunks[next]
		if !ok {
			break
		}
		data = append(data, c...)
	}
	b.mu.Unlock()
	if len(data) > n {
		data = data[:n]
	}
	b.chargeDisk(len(data))
	return data, nil
}

func (b *memBacking) DataWrite(ctx context.Context, o *core.Object, off uint64, data []byte) error {
	b.writes.Add(1)
	if err := ctx.Err(); err != nil {
		return err
	}
	b.chargeDisk(len(data))
	b.mu.Lock()
	m := b.store[o]
	if m == nil {
		m = make(map[uint64][]byte)
		b.store[o] = m
	}
	for lo := 0; lo < len(data); lo += pgsz {
		hi := lo + pgsz
		if hi > len(data) {
			hi = len(data)
		}
		m[off+uint64(lo)] = append([]byte(nil), data[lo:hi]...)
	}
	b.writeLen = append(b.writeLen, len(data))
	b.mu.Unlock()
	return nil
}

func (b *memBacking) Terminate(o *core.Object) {
	b.mu.Lock()
	delete(b.store, o)
	b.mu.Unlock()
}

func (b *memBacking) writeSizes() []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.writeLen...)
}

// mapObject maps obj into a fresh task map activated on cpu 0.
func mapObject(t testing.TB, k *core.Kernel, machine *hw.Machine, obj *core.Object, size uint64) (*core.Map, vmtypes.VA) {
	t.Helper()
	m := k.NewMap()
	m.Pmap().Activate(machine.CPU(0))
	addr, err := m.AllocateWithObject(0, size, true, obj, 0,
		vmtypes.ProtDefault, vmtypes.ProtAll, vmtypes.InheritCopy, false)
	if err != nil {
		t.Fatal(err)
	}
	return m, addr
}

// pagePattern fills buf with a compressible page-unique pattern.
func pagePattern(buf []byte, page int) {
	for i := range buf {
		buf[i] = byte(page + 1)
	}
	buf[0] = byte(page >> 8)
	buf[1] = byte(page)
}

func TestZtierHitZeroBackingRoundTrips(t *testing.T) {
	k, machine := newTierKernel(t, 1, 4096)
	backing := newMemBacking(nil)
	tier := ztier.New(backing, ztier.Config{Budget: 8 << 20, PageSize: pgsz, Stats: k.Stats(), Machine: machine})
	defer tier.Close()

	const pages = 16
	size := uint64(pages) * pgsz
	obj := k.NewObject(size, tier, "zt-hit")
	m, addr := mapObject(t, k, machine, obj, size)
	defer m.Destroy()
	cpu := machine.CPU(0)

	buf := make([]byte, pgsz)
	for i := 0; i < pages; i++ {
		pagePattern(buf, i)
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(i*pgsz), buf, true); err != nil {
			t.Fatalf("populate page %d: %v", i, err)
		}
	}
	// Evict everything: the dirty pages ride DataWrites into the tier.
	k.PageoutScan()
	if n := tier.ObjectBlobs(obj); n == 0 {
		t.Fatal("pageout stored no blobs in the compressed tier")
	}

	// Refault every page: all served from the pool — the backing pager
	// must see ZERO DataRequests while the kernel's PagerRoundTrips grow.
	reqs0, _ := backing.requests.Load(), backing.writes.Load()
	rt0 := k.Stats().PagerRoundTrips.Load()
	got := make([]byte, pgsz)
	want := make([]byte, pgsz)
	for i := 0; i < pages; i++ {
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(i*pgsz), got, false); err != nil {
			t.Fatalf("refault page %d: %v", i, err)
		}
		pagePattern(want, i)
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d corrupted through the compressed tier", i)
		}
	}
	if d := backing.requests.Load() - reqs0; d != 0 {
		t.Errorf("ztier hits issued %d backing DataRequests, want 0", d)
	}
	if d := k.Stats().PagerRoundTrips.Load() - rt0; d == 0 {
		t.Error("refaults recorded no kernel pager round trips")
	}
	st := k.VMStatistics()
	if st.ZtierHits == 0 {
		t.Error("no ZtierHits recorded")
	}
	if st.ZtierStoredBytes == 0 || st.ZtierCompressedBytes == 0 {
		t.Errorf("tier byte counters not wired: stored=%d compressed=%d",
			st.ZtierStoredBytes, st.ZtierCompressedBytes)
	}
	if st.ZtierCompressedBytes >= st.ZtierStoredBytes {
		t.Errorf("compressible pattern did not compress: %d >= %d",
			st.ZtierCompressedBytes, st.ZtierStoredBytes)
	}
}

func TestZtierEvictionWritesBackClustered(t *testing.T) {
	k, machine := newTierKernel(t, 1, 4096)
	backing := newMemBacking(nil)
	// A budget far below even the compressed working set forces writeback.
	tier := ztier.New(backing, ztier.Config{Budget: 64, PageSize: pgsz, EvictBatch: 16, Stats: k.Stats()})
	defer tier.Close()

	const pages = 32
	size := uint64(pages) * pgsz
	obj := k.NewObject(size, tier, "zt-evict")
	m, addr := mapObject(t, k, machine, obj, size)
	defer m.Destroy()
	cpu := machine.CPU(0)

	buf := make([]byte, pgsz)
	for i := 0; i < pages; i++ {
		pagePattern(buf, i)
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(i*pgsz), buf, true); err != nil {
			t.Fatal(err)
		}
	}
	k.PageoutScan()
	tier.Drain(context.Background())

	st := k.VMStatistics()
	if st.ZtierEvictions == 0 {
		t.Fatal("over-budget pool recorded no evictions")
	}
	if backing.writes.Load() == 0 {
		t.Fatal("evictions never reached the backing tier")
	}
	multi := false
	for _, n := range backing.writeSizes() {
		if n > pgsz {
			multi = true
		}
	}
	if !multi {
		t.Error("no clustered multi-page writeback observed")
	}

	// Every page must read back intact, wherever it now lives.
	got := make([]byte, pgsz)
	want := make([]byte, pgsz)
	for i := 0; i < pages; i++ {
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(i*pgsz), got, false); err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		pagePattern(want, i)
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d corrupted across eviction", i)
		}
	}
	if st = k.VMStatistics(); st.ZtierMisses == 0 {
		t.Error("reads after eviction recorded no tier misses")
	}
}

func TestZtierZeroAndIncompressibleBypass(t *testing.T) {
	k, machine := newTierKernel(t, 1, 4096)
	backing := newMemBacking(nil)
	tier := ztier.New(backing, ztier.Config{Budget: 8 << 20, PageSize: pgsz, Stats: k.Stats()})
	defer tier.Close()

	const pages = 8
	size := uint64(pages) * pgsz
	obj := k.NewObject(size, tier, "zt-bypass")
	m, addr := mapObject(t, k, machine, obj, size)
	defer m.Destroy()
	cpu := machine.CPU(0)

	// Even pages: incompressible noise. Odd pages: zeros (written as
	// zeros explicitly so they are dirty and ride a DataWrite).
	r := uint64(7)
	noise := func(buf []byte) {
		for i := range buf {
			r = r*6364136223846793005 + 1442695040888963407
			buf[i] = byte(r >> 33)
		}
	}
	pageData := make([][]byte, pages)
	for i := 0; i < pages; i++ {
		buf := make([]byte, pgsz)
		if i%2 == 0 {
			noise(buf)
		}
		pageData[i] = buf
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(i*pgsz), buf, true); err != nil {
			t.Fatal(err)
		}
	}
	k.PageoutScan()

	st := k.VMStatistics()
	if st.ZtierBypasses == 0 {
		t.Fatal("incompressible pages were not bypassed to the backing tier")
	}
	if backing.writes.Load() == 0 {
		t.Fatal("bypass never wrote to the backing tier")
	}
	// Zero pages must be pool sentinels contributing no compressed bytes:
	// the pool's compressed footprint must stay far below 4 zero pages.
	if _, _, comp := tier.Stored(); comp > pgsz {
		t.Errorf("zero sentinels occupy %d compressed bytes", comp)
	}
	got := make([]byte, pgsz)
	for i := 0; i < pages; i++ {
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(i*pgsz), got, false); err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		if !bytes.Equal(got, pageData[i]) {
			t.Fatalf("page %d corrupted (bypass/sentinel path)", i)
		}
	}
}

func TestFallbackSwapRetargetPurgesZtierBlobs(t *testing.T) {
	k, machine := newTierKernel(t, 1, 4096)
	backing := newMemBacking(nil)
	fp := pager.NewFlakyPager(backing)
	tier := ztier.New(fp, ztier.Config{Budget: 8 << 20, PageSize: pgsz, Stats: k.Stats()})
	defer tier.Close()
	k.SetPagerPolicy(core.PagerPolicy{Deadline: 500 * time.Millisecond, Retries: 1, BackoffBase: time.Millisecond})

	const pages = 8
	size := uint64(pages) * pgsz
	obj := k.NewObject(size, tier, "zt-retarget")
	obj.SetPagerFallback(core.FallbackSwap)
	m, addr := mapObject(t, k, machine, obj, size)
	defer m.Destroy()
	cpu := machine.CPU(0)

	// Phase 1: populate compressed blobs under automatic placement.
	buf := make([]byte, pgsz)
	for i := 0; i < pages; i++ {
		pagePattern(buf, i)
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(i*pgsz), buf, true); err != nil {
			t.Fatal(err)
		}
	}
	k.PageoutScan()
	if tier.ObjectBlobs(obj) == 0 {
		t.Fatal("phase 1 stored no blobs")
	}

	// Phase 2: demote the object cold — DataWrites now bypass to the
	// flaky backing — and make every backing write fail. The kernel must
	// retarget the object to the default pager AND terminate the tier's
	// view of it, so no compressed blob is stranded behind the retarget.
	obj.SetTier(core.TierCold)
	fp.FailNextWrites(-1)
	for i := 0; i < pages; i++ {
		pagePattern(buf, i+100)
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(i*pgsz), buf, true); err != nil {
			t.Fatal(err)
		}
	}
	k.PageoutScan()

	st := k.VMStatistics()
	if st.PagerFallbacks == 0 {
		t.Fatal("failing bypass write never triggered FallbackSwap")
	}
	if n := tier.ObjectBlobs(obj); n != 0 {
		t.Errorf("%d compressed blobs stranded in ztier after retarget", n)
	}
	// The retried data landed in the default pager: the fresh contents
	// must read back intact even though the tier was purged.
	got := make([]byte, pgsz)
	want := make([]byte, pgsz)
	for i := 0; i < pages; i++ {
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(i*pgsz), got, false); err != nil {
			t.Fatalf("read page %d after retarget: %v", i, err)
		}
		pagePattern(want, i+100)
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d lost across FallbackSwap retarget", i)
		}
	}
}

// TestZtierTeardownStress races faulting threads against pageout-driven
// tier stores, budget-pressure writeback, injected backing failures, and
// object teardown (which must drain in-flight writebacks). The invariant
// under -race: no data race, no deadlock, and the world is live after the
// knobs reset.
func TestZtierTeardownStress(t *testing.T) {
	k, machine := newTierKernel(t, 2, 4096)
	backing := newMemBacking(nil)
	fp := pager.NewFlakyPager(backing)
	tier := ztier.New(fp, ztier.Config{Budget: 16 * pgsz, PageSize: pgsz, EvictBatch: 8, Stats: k.Stats()})
	defer tier.Close()
	k.SetPagerPolicy(core.PagerPolicy{Deadline: 50 * time.Millisecond, Retries: 1, BackoffBase: time.Millisecond})

	const pages = 32
	size := uint64(pages) * pgsz
	obj := k.NewObject(size, tier, "zt-stress")
	obj.SetPagerFallback(core.FallbackZeroFill)
	m, addr := mapObject(t, k, machine, obj, size)
	defer m.Destroy()
	m.Pmap().Activate(machine.CPU(1))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cpu := machine.CPU(g % 2)
			rng := uint64(g)*2654435761 + 1
			buf := make([]byte, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				va := addr + vmtypes.VA((rng>>33)%pages*pgsz)
				_ = k.AccessBytes(cpu, m, va, buf, i%3 == 0)
			}
		}(g)
	}
	// Churn goroutine: short-lived objects over the same tier, torn down
	// while writebacks may be in flight for them.
	wg.Add(1)
	go func() {
		defer wg.Done()
		cpu := machine.CPU(1)
		buf := make([]byte, pgsz)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			o2 := k.NewObject(8*pgsz, tier, "zt-churn")
			o2.SetPagerFallback(core.FallbackZeroFill)
			m2 := k.NewMap()
			m2.Pmap().Activate(cpu)
			a2, err := m2.AllocateWithObject(0, 8*pgsz, true, o2, 0,
				vmtypes.ProtDefault, vmtypes.ProtAll, vmtypes.InheritCopy, false)
			if err == nil {
				for p := 0; p < 8; p += 2 {
					pagePattern(buf, p+i)
					_ = k.AccessBytes(cpu, m2, a2+vmtypes.VA(p*pgsz), buf, true)
				}
				k.PageoutScan()
				_ = m2.Deallocate(a2, 8*pgsz)
			} else {
				k.ReleaseObjectRef(o2)
			}
			m2.Pmap().Deactivate(cpu)
			m2.Destroy()
		}
	}()
	// Drain goroutine: races explicit writeback against the worker.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			tier.Drain(context.Background())
			time.Sleep(time.Millisecond)
		}
	}()

	for round := 0; round < 8; round++ {
		switch round % 4 {
		case 0:
			fp.FailNextWrites(4)
		case 1:
			fp.SetDelay(time.Millisecond)
		case 2:
			fp.SetDelay(0)
			fp.FailNextRequests(4)
		case 3:
			fp.FailNextWrites(0)
			fp.FailNextRequests(0)
		}
		k.PageoutScan()
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	fp.SetDelay(0)
	fp.FailNextWrites(0)
	fp.FailNextRequests(0)
	b := make([]byte, 1)
	for i := 0; i < pages; i++ {
		if err := k.AccessBytes(machine.CPU(0), m, addr+vmtypes.VA(i*pgsz), b, false); err != nil {
			t.Fatalf("page %d unreadable after stress: %v", i, err)
		}
	}
}

// TestZtierBypassInvalidatesStaleBlobs drives the tier directly through
// the pager contract to pin the swap-cache staleness bug: a blob kept in
// the pool after a refault must die when a rewrite of the same page
// reaches the backing tier through a bypass route (incompressible page
// or cold-object run), or the next fault would resurrect the old bytes.
func TestZtierBypassInvalidatesStaleBlobs(t *testing.T) {
	k, _ := newTierKernel(t, 1, 64)
	backing := newMemBacking(nil)
	tier := ztier.New(backing, ztier.Config{Budget: 8 << 20, PageSize: pgsz, Stats: k.Stats()})
	defer tier.Close()
	ctx := context.Background()

	noise := func(buf []byte, seed uint64) {
		r := seed
		for i := range buf {
			r = r*6364136223846793005 + 1442695040888963407
			buf[i] = byte(r >> 33)
		}
	}
	old := make([]byte, pgsz)
	pagePattern(old, 1)

	// Route 1: incompressible rewrite of a pooled page.
	obj := k.NewObject(4*pgsz, tier, "zt-stale-incomp")
	if err := tier.DataWrite(ctx, obj, 0, old); err != nil {
		t.Fatal(err)
	}
	if got, err := tier.DataRequest(ctx, obj, 0, pgsz); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("priming hit: %v", err) // blob stays pooled, swap-cache style
	}
	fresh := make([]byte, pgsz)
	noise(fresh, 7)
	if err := tier.DataWrite(ctx, obj, 0, fresh); err != nil {
		t.Fatal(err)
	}
	got, err := tier.DataRequest(ctx, obj, 0, pgsz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Error("incompressible bypass left a stale blob serving old bytes")
	}

	// Route 2: whole-run cold-object bypass over pooled pages.
	obj2 := k.NewObject(4*pgsz, tier, "zt-stale-cold")
	if err := tier.DataWrite(ctx, obj2, 0, old); err != nil {
		t.Fatal(err)
	}
	obj2.SetTier(core.TierCold)
	fresh2 := make([]byte, pgsz)
	pagePattern(fresh2, 99)
	if err := tier.DataWrite(ctx, obj2, 0, fresh2); err != nil {
		t.Fatal(err)
	}
	if got, err = tier.DataRequest(ctx, obj2, 0, pgsz); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh2) {
		t.Error("cold-object bypass left a stale blob serving old bytes")
	}
}

// TestZtierMissClampsAtPoolResidentPage pins the clustered-miss data-loss
// bug: when the first page misses but a later page in the range has a
// live blob — the newest copy, re-paged-out after an earlier eviction —
// the fall-through backing read must stop short of it, and admission
// must not replace it with the backing tier's stale copy.
func TestZtierMissClampsAtPoolResidentPage(t *testing.T) {
	k, _ := newTierKernel(t, 1, 64)
	backing := newMemBacking(nil)
	tier := ztier.New(backing, ztier.Config{Budget: 8 << 20, PageSize: pgsz, Stats: k.Stats()})
	defer tier.Close()
	ctx := context.Background()
	obj := k.NewObject(4*pgsz, tier, "zt-clamp")

	// Backing holds version A of pages 0 and 1 (an earlier eviction);
	// the pool then receives version B of page 1 only (re-paged-out).
	a := make([]byte, 2*pgsz)
	pagePattern(a[:pgsz], 0)
	pagePattern(a[pgsz:], 1)
	if err := backing.DataWrite(ctx, obj, 0, a); err != nil {
		t.Fatal(err)
	}
	b1 := make([]byte, pgsz)
	pagePattern(b1, 201)
	if err := tier.DataWrite(ctx, obj, pgsz, b1); err != nil {
		t.Fatal(err)
	}

	// A clustered fault over both pages: the miss must clamp at page 1.
	got, err := tier.DataRequest(ctx, obj, 0, 2*pgsz)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) > pgsz {
		t.Fatalf("miss read %d bytes past the pool-resident page, want <= %d", len(got), pgsz)
	}
	if !bytes.Equal(got[:pgsz], a[:pgsz]) {
		t.Error("page 0 corrupted on clamped miss")
	}
	// The kernel re-asks for the remainder: page 1 must still be B.
	if got, err = tier.DataRequest(ctx, obj, pgsz, pgsz); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, b1) {
		t.Error("stale backing copy clobbered the fresher pool blob")
	}
}

// hangBacking blocks every DataWrite until its context dies, modelling a
// remote pager whose far end stopped replying.
type hangBacking struct{ writes atomic.Uint64 }

func (h *hangBacking) Name() string             { return "hang" }
func (h *hangBacking) Init(o *core.Object)      {}
func (h *hangBacking) Terminate(o *core.Object) {}
func (h *hangBacking) DataRequest(ctx context.Context, o *core.Object, off uint64, n int) ([]byte, error) {
	return nil, core.ErrDataUnavailable
}
func (h *hangBacking) DataWrite(ctx context.Context, o *core.Object, off uint64, data []byte) error {
	h.writes.Add(1)
	<-ctx.Done()
	return ctx.Err()
}

// TestZtierWritebackDeadlineUnwedgesTerminate pins the worker-hang bug:
// a backing pager that never answers a writeback DataWrite must not wedge
// Terminate (which drains in-flight writebacks) — the per-round
// WritebackDeadline has to cut the write loose.
func TestZtierWritebackDeadlineUnwedgesTerminate(t *testing.T) {
	k, _ := newTierKernel(t, 1, 64)
	backing := &hangBacking{}
	tier := ztier.New(backing, ztier.Config{
		Budget: 64, PageSize: pgsz, EvictBatch: 4,
		WritebackDeadline: 20 * time.Millisecond, Stats: k.Stats(),
	})
	defer tier.Close()
	obj := k.NewObject(16*pgsz, tier, "zt-hang")

	// Overfill the pool so the worker kicks and wedges in the hung write.
	buf := make([]byte, pgsz)
	for i := 0; i < 16; i++ {
		pagePattern(buf, i)
		if err := tier.DataWrite(context.Background(), obj, uint64(i)*pgsz, buf); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for backing.writes.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("writeback worker never attempted a backing write")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan struct{})
	go func() {
		tier.Terminate(obj)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Terminate wedged behind a hung backing writeback")
	}
}

// TestZtierThroughputAdvantage is the acceptance headline measured in
// virtual time: a working set 1.5× physical memory against a delayed
// backing pager must sustain at least 3× the throughput with the
// compressed tier enabled versus disabled.
func TestZtierThroughputAdvantage(t *testing.T) {
	run := func(enableZtier bool) (virtualNS int64) {
		k, machine := newTierKernel(t, 1, 1024) // 1024×512B frames = 512KB RAM
		backing := newMemBacking(machine)       // charges disk costs
		backing.delayNS = 40e6                  // a slow tier: +40ms per conversation
		var pg core.Pager = backing
		var tier *ztier.Tier
		if enableZtier {
			tier = ztier.New(backing, ztier.Config{Budget: 4 << 20, PageSize: pgsz, Stats: k.Stats(), Machine: machine})
			defer tier.Close()
			pg = tier
		}
		ramPages := 1024 * vax.HWPageSize / pgsz
		wsPages := ramPages * 3 / 2 // 1.5× RAM
		size := uint64(wsPages) * pgsz
		obj := k.NewObject(size, pg, "ws")
		m, addr := mapObject(t, k, machine, obj, size)
		defer m.Destroy()
		cpu := machine.CPU(0)

		buf := make([]byte, pgsz)
		for i := 0; i < wsPages; i++ {
			pagePattern(buf, i)
			if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(i*pgsz), buf, true); err != nil {
				t.Fatal(err)
			}
		}
		for pass := 0; pass < 4; pass++ {
			k.PageoutScan()
			for i := 0; i < wsPages; i++ {
				if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(i*pgsz), buf[:64], false); err != nil {
					t.Fatal(err)
				}
			}
		}
		st := k.VMStatistics()
		t.Logf("ztier=%v: backingReqs=%d backingWrites=%d hits=%d misses=%d roundtrips=%d",
			enableZtier, backing.requests.Load(), backing.writes.Load(),
			st.ZtierHits, st.ZtierMisses, st.PagerRoundTrips)
		return machine.Clock.Now()
	}

	flat := run(false)
	tiered := run(true)
	t.Logf("ztier speedup = %.2fx in virtual time (flat=%dns tiered=%dns)",
		float64(flat)/float64(tiered), flat, tiered)
	if flat < 3*tiered {
		t.Errorf("ztier speedup = %.2fx in virtual time, want >= 3x (flat=%dns tiered=%dns)",
			float64(flat)/float64(tiered), flat, tiered)
	}
}
