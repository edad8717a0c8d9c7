package hw

import (
	"math/bits"
	"sync"

	"machvm/internal/vmtypes"
)

// TLBKey identifies one translation: an address-space identifier assigned
// by the pmap layer plus a virtual page number (in hardware pages).
type TLBKey struct {
	Space uint32
	VPN   uint64
}

// TLBEntry is a cached translation.
type TLBEntry struct {
	PFN  vmtypes.PFN
	Prot vmtypes.Prot
}

// TLBStats counts TLB traffic. None of the paper's multiprocessors could
// reference or modify a remote TLB (§5.2), so these counters — especially
// flushes induced by shootdowns — are a primary evaluation signal.
type TLBStats struct {
	Hits         uint64
	Misses       uint64
	PageFlushes  uint64
	SpaceFlushes uint64
	FullFlushes  uint64
	Evictions    uint64
}

// tlbCell is a cached translation plus the sequence number of the FIFO
// record that owns it, so stale FIFO records (left by FlushPage or
// FlushSpace, or by a flush-then-reinsert of the same key) can be
// recognized without being removed eagerly. seq == 0 marks an empty cell.
type tlbCell struct {
	key   TLBKey
	entry TLBEntry
	seq   uint64
}

// tlbRec is one FIFO ring record.
type tlbRec struct {
	key TLBKey
	seq uint64
}

// TLB is a finite translation lookaside buffer with FIFO replacement.
// Replacement order is deterministic so simulations are reproducible.
//
// What is modelled is a fully associative buffer: any translation can sit
// in any of the size slots, and a flushed slot is free at once. The host
// stores the entries in a fixed open-addressed cell array (linear probing,
// at most half full, backward-shift delete, no tombstones) and the FIFO in
// a fixed ring of 2×size records, so steady-state operation performs no
// heap allocation (a hot fault path probes and inserts on every TLB miss).
// Flushes leave stale records in the ring; they are skipped during
// eviction and compacted in place when the ring fills.
type TLB struct {
	mu    sync.Mutex
	size  int
	cells []tlbCell // power-of-two length ≥ 2×size
	shift uint      // 64 − log2(len(cells))
	n     int       // occupied cells
	ring  []tlbRec
	head  int // index of the oldest record
	count int // live+stale records in the ring
	seq   uint64
	stats TLBStats
}

// NewTLB creates a TLB holding at most size entries.
func NewTLB(size int) *TLB {
	if size <= 0 {
		size = 64
	}
	lg := bits.Len(uint(2*size - 1))
	return &TLB{
		size:  size,
		cells: make([]tlbCell, 1<<lg),
		shift: uint(64 - lg),
		ring:  make([]tlbRec, 2*size),
	}
}

// Size returns the TLB capacity in entries.
func (t *TLB) Size() int { return t.size }

// home returns the cell a key's probe sequence starts at.
func (t *TLB) home(key TLBKey) int {
	return int((key.VPN ^ uint64(key.Space)<<32) * 0x9E3779B97F4A7C15 >> t.shift)
}

// find returns the cell holding key, or the empty cell that ends its probe
// sequence. The array is never more than half full, so the probe ends.
func (t *TLB) find(key TLBKey) (int, bool) {
	mask := len(t.cells) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		if t.cells[i].seq == 0 {
			return i, false
		}
		if t.cells[i].key == key {
			return i, true
		}
	}
}

// remove empties cell i, then walks the cluster behind it moving back every
// entry whose probe sequence passed through the hole.
func (t *TLB) remove(i int) {
	mask := len(t.cells) - 1
	for j := (i + 1) & mask; t.cells[j].seq != 0; j = (j + 1) & mask {
		if (j-t.home(t.cells[j].key))&mask >= (j-i)&mask {
			t.cells[i] = t.cells[j]
			i = j
		}
	}
	t.cells[i] = tlbCell{}
	t.n--
}

// Lookup probes the TLB. It returns the cached entry and whether the probe
// hit.
func (t *TLB) Lookup(key TLBKey) (TLBEntry, bool) {
	var entry TLBEntry
	t.mu.Lock()
	i, ok := t.find(key)
	if ok {
		t.stats.Hits++
		entry = t.cells[i].entry
	} else {
		t.stats.Misses++
	}
	t.mu.Unlock()
	return entry, ok
}

// pushRec appends a record to the ring, compacting stale records in
// place (preserving order) when it is full. At most size records can be
// live, so compaction of a full 2×size ring always frees space.
func (t *TLB) pushRec(rec tlbRec) {
	if t.count == len(t.ring) {
		kept := 0
		for i := 0; i < t.count; i++ {
			r := t.ring[(t.head+i)%len(t.ring)]
			if j, ok := t.find(r.key); ok && t.cells[j].seq == r.seq {
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
func (t *TLB) Insert(key TLBKey, entry TLBEntry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	i, ok := t.find(key)
	if ok {
		t.cells[i].entry = entry
		return
	}
	for t.n >= t.size {
		rec := t.ring[t.head]
		t.head = (t.head + 1) % len(t.ring)
		t.count--
		if j, ok := t.find(rec.key); ok && t.cells[j].seq == rec.seq {
			t.remove(j)
			t.stats.Evictions++
			i, _ = t.find(key) // the shift may have moved the probe's end
		}
	}
	t.seq++
	t.cells[i] = tlbCell{key: key, entry: entry, seq: t.seq}
	t.n++
	t.pushRec(tlbRec{key: key, seq: t.seq})
}

// FlushPage invalidates a single translation if present.
func (t *TLB) FlushPage(key TLBKey) {
	t.mu.Lock()
	if i, ok := t.find(key); ok {
		t.remove(i)
	}
	t.stats.PageFlushes++
	t.mu.Unlock()
}

// FlushSpace invalidates every translation belonging to one address space.
func (t *TLB) FlushSpace(space uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.cells {
		// remove may shift another entry of the space into cell i.
		for t.cells[i].seq != 0 && t.cells[i].key.Space == space {
			t.remove(i)
		}
	}
	t.stats.SpaceFlushes++
}

// FlushAll empties the TLB.
func (t *TLB) FlushAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	clear(t.cells)
	t.n = 0
	t.head, t.count = 0, 0
	t.stats.FullFlushes++
}

// Stats returns a snapshot of the TLB counters.
func (t *TLB) Stats() TLBStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// Len returns the number of currently valid entries.
func (t *TLB) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}
