package hw

// The reference model of TLB: the map-based implementation TLB had before
// its entries moved into a cell array, kept word for word (only the type
// names changed) as the oracle the differential test and FuzzTLBModel
// compare the real one against. A change that only makes the simulator
// faster must leave every simulated statistic identical, so the two must
// agree on every Lookup result, on Len and on every TLBStats counter after
// every operation.

import (
	"math/rand"
	"sync"
	"testing"

	"machvm/internal/vmtypes"
)

// modelSlot is a cached translation plus the sequence number of the FIFO
// record that owns it, so stale FIFO records (left by FlushPage or
// FlushSpace, or by a flush-then-reinsert of the same key) can be
// recognized without being removed eagerly.
type modelSlot struct {
	entry TLBEntry
	seq   uint64
}

// modelRec is one FIFO ring record.
type modelRec struct {
	key TLBKey
	seq uint64
}

// modelTLB is a finite translation lookaside buffer with FIFO replacement.
// Replacement order is deterministic so simulations are reproducible.
//
// The FIFO is a fixed ring of 2×size records and the map stores entries
// by value, so steady-state operation — insert, evict, flush, reinsert —
// performs no heap allocation (a hot fault path inserts on every TLB
// miss). Flushes leave stale records in the ring; they are skipped
// during eviction and compacted in place when the ring fills.
type modelTLB struct {
	mu      sync.Mutex
	size    int
	entries map[TLBKey]modelSlot
	ring    []modelRec
	head    int // index of the oldest record
	count   int // live+stale records in the ring
	seq     uint64
	stats   TLBStats
}

// newModelTLB creates a TLB holding at most size entries.
func newModelTLB(size int) *modelTLB {
	if size <= 0 {
		size = 64
	}
	return &modelTLB{
		size:    size,
		entries: make(map[TLBKey]modelSlot, size),
		ring:    make([]modelRec, 2*size),
	}
}

// Size returns the TLB capacity in entries.
func (t *modelTLB) Size() int { return t.size }

// Lookup probes the TLB. It returns the cached entry and whether the probe
// hit.
func (t *modelTLB) Lookup(key TLBKey) (TLBEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.entries[key]; ok {
		t.stats.Hits++
		return s.entry, true
	}
	t.stats.Misses++
	return TLBEntry{}, false
}

// pushRec appends a record to the ring, compacting stale records in
// place (preserving order) when it is full. At most size records can be
// live, so compaction of a full 2×size ring always frees space.
func (t *modelTLB) pushRec(rec modelRec) {
	if t.count == len(t.ring) {
		kept := 0
		for i := 0; i < t.count; i++ {
			r := t.ring[(t.head+i)%len(t.ring)]
			if s, ok := t.entries[r.key]; ok && s.seq == r.seq {
				t.ring[kept] = r
				kept++
			}
		}
		t.head = 0
		t.count = kept
	}
	t.ring[(t.head+t.count)%len(t.ring)] = rec
	t.count++
}

// Insert loads a translation, evicting the oldest entry if full.
func (t *modelTLB) Insert(key TLBKey, entry TLBEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s, ok := t.entries[key]; ok {
		s.entry = entry
		t.entries[key] = s
		return
	}
	for len(t.entries) >= t.size {
		rec := t.ring[t.head]
		t.head = (t.head + 1) % len(t.ring)
		t.count--
		if s, ok := t.entries[rec.key]; ok && s.seq == rec.seq {
			delete(t.entries, rec.key)
			t.stats.Evictions++
		}
	}
	t.seq++
	t.entries[key] = modelSlot{entry: entry, seq: t.seq}
	t.pushRec(modelRec{key: key, seq: t.seq})
}

// FlushPage invalidates a single translation if present.
func (t *modelTLB) FlushPage(key TLBKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.entries[key]; ok {
		delete(t.entries, key)
	}
	t.stats.PageFlushes++
}

// FlushSpace invalidates every translation belonging to one address space.
func (t *modelTLB) FlushSpace(space uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := range t.entries {
		if k.Space == space {
			delete(t.entries, k)
		}
	}
	t.stats.SpaceFlushes++
}

// FlushAll empties the TLB.
func (t *modelTLB) FlushAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.entries)
	t.head, t.count = 0, 0
	t.stats.FullFlushes++
}

// Stats returns a snapshot of the TLB counters.
func (t *modelTLB) Stats() TLBStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Len returns the number of currently valid entries.
func (t *modelTLB) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// The differential harness. An op is four bytes — kind, space, vpn low,
// vpn high — so that the seeded random driver and the fuzzer share one
// decoder.

var tlbCapacities = [...]int{1, 2, 8, 64, 512}

const (
	tlbSpaces = 3
	// Of 64 kinds, 28 insert, 20 look up, 14 flush a page, and one each
	// flushes a space and everything.
	kindInsert     = 0
	kindLookup     = 28
	kindFlushPage  = 48
	kindFlushSpace = 62
	kindFlushAll   = 63
)

// tlbPair drives a TLB and its model in lockstep.
type tlbPair struct {
	tb    testing.TB
	real  *TLB
	model *modelTLB
	vpns  uint64 // vpn range: 4× capacity, so most inserts evict
	step  int
}

func newTLBPair(tb testing.TB, capacity int) *tlbPair {
	return &tlbPair{tb: tb, real: NewTLB(capacity), model: newModelTLB(capacity), vpns: 4 * uint64(capacity)}
}

func (p *tlbPair) key(space byte, vpn uint16) TLBKey {
	return TLBKey{Space: uint32(space)%tlbSpaces + 1, VPN: uint64(vpn) % p.vpns}
}

// apply performs one decoded op on both sides and compares everything
// observable: the Lookup result, Len and every counter.
func (p *tlbPair) apply(kind, space byte, vpn uint16) {
	p.tb.Helper()
	p.step++
	key := p.key(space, vpn)
	switch k := kind % 64; {
	case k < kindLookup:
		e := TLBEntry{PFN: vmtypes.PFN(p.step), Prot: vmtypes.Prot(kind >> 6)}
		p.real.Insert(key, e)
		p.model.Insert(key, e)
	case k < kindFlushPage:
		p.lookup(key)
	case k < kindFlushSpace:
		p.real.FlushPage(key)
		p.model.FlushPage(key)
	case k == kindFlushSpace:
		p.real.FlushSpace(key.Space)
		p.model.FlushSpace(key.Space)
	default:
		p.real.FlushAll()
		p.model.FlushAll()
	}
	if got, want := p.real.Len(), p.model.Len(); got != want {
		p.tb.Fatalf("step %d (kind %d, key %+v): Len = %d; model has %d", p.step, kind%64, key, got, want)
	}
	if got, want := p.real.Stats(), p.model.Stats(); got != want {
		p.tb.Fatalf("step %d (kind %d, key %+v): Stats = %+v; model has %+v", p.step, kind%64, key, got, want)
	}
}

func (p *tlbPair) lookup(key TLBKey) {
	p.tb.Helper()
	got, hit := p.real.Lookup(key)
	want, wantHit := p.model.Lookup(key)
	if got != want || hit != wantHit {
		p.tb.Fatalf("step %d: Lookup(%+v) = %+v,%v; model has %+v,%v", p.step, key, got, hit, want, wantHit)
	}
}

// run applies an encoded op stream, then compares the whole contents.
func (p *tlbPair) run(ops []byte) {
	p.tb.Helper()
	for ; len(ops) >= 4; ops = ops[4:] {
		p.apply(ops[0], ops[1], uint16(ops[2])|uint16(ops[3])<<8)
	}
	for space := byte(0); space < tlbSpaces; space++ {
		for vpn := uint64(0); vpn < p.vpns; vpn++ {
			p.lookup(p.key(space, uint16(vpn)))
		}
	}
}

// randomTLBOps encodes n seeded random ops. The two bulk flushes are made
// rare enough (once per ~8 capacities of ops) for the TLB to fill between.
func randomTLBOps(seed int64, capacity, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, 4*n)
	for i := 0; i < n; i++ {
		kind := byte(rng.Intn(kindFlushSpace))
		if rng.Intn(8*capacity) == 0 {
			kind = kindFlushSpace + byte(rng.Intn(2))
		}
		kind |= byte(rng.Intn(4)) << 6 // protection bits of an insert
		vpn := rng.Intn(4 * capacity)
		ops = append(ops, kind, byte(rng.Intn(tlbSpaces)), byte(vpn), byte(vpn>>8))
	}
	return ops
}

func TestTLBMatchesModel(t *testing.T) {
	for i, capacity := range tlbCapacities {
		p := newTLBPair(t, capacity)
		p.run(randomTLBOps(int64(i+1), capacity, 200_000))
		if s := p.real.Stats(); s.Evictions == 0 || s.Hits == 0 || s.SpaceFlushes == 0 || s.FullFlushes == 0 {
			t.Fatalf("capacity %d: the op stream left a path unexercised: %+v", capacity, s)
		}
	}
}

// encodeOp is the inverse of the decoder for one key of a given capacity.
func encodeOp(kind byte, key TLBKey) []byte {
	return []byte{kind, byte(key.Space - 1), byte(key.VPN), byte(key.VPN >> 8)}
}

// wrapAroundOps builds the case a backward-shift delete is most likely to
// get wrong: a cluster that starts in the last cell and wraps to the
// first. Three keys homed in the last cell and one homed in cell 0 fill
// cells last, 0, 1, 2; flushing the first shifts all the others back
// across the wrap.
func wrapAroundOps(tb testing.TB, capacity int) []byte {
	p := newTLBPair(tb, capacity)
	last := len(p.real.cells) - 1
	var inLast, inFirst []TLBKey
	for space := byte(0); space < tlbSpaces; space++ {
		for vpn := uint64(0); vpn < p.vpns; vpn++ {
			switch key := p.key(space, uint16(vpn)); p.real.home(key) {
			case last:
				inLast = append(inLast, key)
			case 0:
				inFirst = append(inFirst, key)
			}
		}
	}
	if len(inLast) < 3 || len(inFirst) < 1 {
		tb.Fatalf("capacity %d: no wrapping cluster among the test keys", capacity)
	}
	cluster := append(inLast[:3:3], inFirst[0])
	var ops []byte
	for _, key := range cluster {
		ops = append(ops, encodeOp(kindInsert, key)...)
	}
	for _, key := range cluster {
		ops = append(ops, encodeOp(kindFlushPage, key)...)
		for _, other := range cluster {
			ops = append(ops, encodeOp(kindLookup, other)...)
		}
	}
	// Check that the layout is what the comment says, so a change of hash
	// that defuses this case is noticed.
	p.run(ops[:4*len(cluster)])
	for i, key := range cluster {
		if c := p.real.cells[(last+i)&last]; c.seq == 0 || c.key != key {
			tb.Fatalf("capacity %d: cell %d holds %+v; want %+v", capacity, (last+i)&last, c, key)
		}
	}
	return ops
}

// flushReinsertOps flushes and reinserts one key, leaving a stale and a
// live FIFO record for it, then inserts enough other keys to evict past
// both records and to force a ring compaction.
func flushReinsertOps(capacity int) []byte {
	k := TLBKey{Space: 1, VPN: 0}
	ops := append(encodeOp(kindInsert, k), encodeOp(kindFlushPage, k)...)
	ops = append(ops, encodeOp(kindInsert, k)...)
	for round := 0; round < 3; round++ {
		for vpn := 1; vpn < 4*capacity; vpn++ {
			other := TLBKey{Space: 2, VPN: uint64(vpn)}
			ops = append(ops, encodeOp(kindInsert, other)...)
			ops = append(ops, encodeOp(kindFlushPage, other)...)
			ops = append(ops, encodeOp(kindInsert, other)...)
			ops = append(ops, encodeOp(kindLookup, k)...)
		}
	}
	return ops
}

func TestTLBWrapAroundAndReinsert(t *testing.T) {
	for _, capacity := range tlbCapacities[2:] { // 16 cells and up
		newTLBPair(t, capacity).run(wrapAroundOps(t, capacity))
	}
	for _, capacity := range tlbCapacities {
		newTLBPair(t, capacity).run(flushReinsertOps(capacity))
	}
}

func FuzzTLBModel(f *testing.F) {
	for i, capacity := range tlbCapacities {
		if capacity >= 8 {
			f.Add(uint8(i), wrapAroundOps(f, capacity))
		}
		f.Add(uint8(i), flushReinsertOps(capacity))
		f.Add(uint8(i), randomTLBOps(int64(100+i), capacity, 16*capacity))
	}
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		newTLBPair(t, tlbCapacities[int(capacity)%len(tlbCapacities)]).run(ops)
	})
}

// BenchmarkTLB times the four operations a fault performs on a full
// 64-entry TLB.
func BenchmarkTLB(b *testing.B) {
	const capacity = 64
	full := func() *TLB {
		t := NewTLB(capacity)
		for vpn := uint64(0); vpn < capacity; vpn++ {
			t.Insert(TLBKey{Space: 1, VPN: vpn}, TLBEntry{PFN: vmtypes.PFN(vpn)})
		}
		return t
	}
	b.Run("LookupHit", func(b *testing.B) {
		t := full()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := t.Lookup(TLBKey{Space: 1, VPN: uint64(i) % capacity}); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("LookupMiss", func(b *testing.B) {
		t := full()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := t.Lookup(TLBKey{Space: 2, VPN: uint64(i) % 4096}); ok {
				b.Fatal("hit")
			}
		}
	})
	b.Run("InsertEvict", func(b *testing.B) {
		t := full()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t.Insert(TLBKey{Space: 1, VPN: capacity + uint64(i)}, TLBEntry{PFN: vmtypes.PFN(i)})
		}
	})
	b.Run("FlushPage", func(b *testing.B) {
		// Flush the entry inserted one step ago, then put it back:
		// half of each iteration is an Insert into a TLB with room.
		t := full()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := TLBKey{Space: 1, VPN: uint64(i) % capacity}
			t.FlushPage(key)
			t.Insert(key, TLBEntry{PFN: vmtypes.PFN(i)})
		}
	})
}
