package core

// Runtime structural invariant checkers. These are the §3.2 map-structure
// and resident-page accounting checks that the white-box tests have always
// enforced, exported as methods returning violation descriptions instead
// of failing a *testing.T, so the SLO layer and the fault/failover matrix
// can assert "zero invariant violations" on live worlds. The caller must
// have quiesced the kernel (no concurrent faulters or daemon); locks are
// still taken piecewise so the checks are usable right after a concurrent
// phase ends.

import (
	"fmt"

	"machvm/internal/vmtypes"
)

// CheckInvariants verifies the map's §3.2 structure: a sorted,
// non-overlapping entry list whose accounting matches, with a consistent
// treap index. It returns one description per violation, nil when clean.
func (m *Map) CheckInvariants() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var v []string
	bad := func(format string, args ...any) {
		v = append(v, "map: "+fmt.Sprintf(format, args...))
	}
	var prev *MapEntry
	n := 0
	var size uint64
	for e := m.head; e != nil; e = e.next {
		n++
		size += e.Span()
		if e.start >= e.end {
			bad("entry [%x,%x) is empty or inverted", e.start, e.end)
		}
		if e.start < m.min || e.end > m.max {
			bad("entry [%x,%x) outside map bounds [%x,%x)", e.start, e.end, m.min, m.max)
		}
		if prev != nil {
			if prev.next != e || e.prev != prev {
				bad("list links corrupted at [%x,%x)", e.start, e.end)
			}
			if prev.end > e.start {
				bad("entries overlap or unsorted: [%x,%x) then [%x,%x)", prev.start, prev.end, e.start, e.end)
			}
		} else if e.prev != nil {
			bad("head has a prev")
		}
		if e.object != nil && e.submap != nil {
			bad("entry [%x,%x) has both object and submap", e.start, e.end)
		}
		if !e.maxProt.Allows(e.prot) {
			bad("current prot %v exceeds max %v", e.prot, e.maxProt)
		}
		prev = e
	}
	if prev != m.tail {
		bad("tail link corrupted")
	}
	if n != m.nentries {
		bad("nentries = %d, counted %d", m.nentries, n)
	}
	if size != m.sizeBytes {
		bad("sizeBytes = %d, counted %d", m.sizeBytes, size)
	}
	if h := m.hint.Load(); h != nil {
		found := false
		for e := m.head; e != nil; e = e.next {
			if e == h {
				found = true
				break
			}
		}
		if !found {
			bad("hint points at an unlinked entry")
		}
	}
	// The treap index must agree with the list: same membership, sorted
	// keys, heap-ordered priorities, and exact lookups for every entry.
	if got := m.countTreapChecked(m.root, nil, nil, &v); got != n {
		bad("treap holds %d entries, list holds %d", got, n)
	}
	for e := m.head; e != nil; e = e.next {
		found, _ := m.indexLookupLE(e.start)
		if found != e {
			bad("index lookup for [%x,%x) found the wrong entry", e.start, e.end)
		}
	}
	return v
}

// countTreapChecked walks the index checking BST key order and the
// max-heap priority invariant, appending violations and returning the
// node count.
func (m *Map) countTreapChecked(e *MapEntry, lo, hi *vmtypes.VA, v *[]string) int {
	if e == nil {
		return 0
	}
	if lo != nil && e.start < *lo || hi != nil && e.start >= *hi {
		*v = append(*v, fmt.Sprintf("map: treap key %x violates BST order", e.start))
	}
	if e.treeLeft != nil && e.treeLeft.treePrio > e.treePrio ||
		e.treeRight != nil && e.treeRight.treePrio > e.treePrio {
		*v = append(*v, fmt.Sprintf("map: treap priority heap violated at %x", e.start))
	}
	return 1 + m.countTreapChecked(e.treeLeft, lo, &e.start, v) +
		m.countTreapChecked(e.treeRight, &e.start, hi, v)
}

// CheckInvariants verifies the resident page table's three-way linkage —
// sharded hash, object lists, page queues — and the free-layer
// depot/magazine accounting. Returns one description per violation, nil
// when clean.
func (k *Kernel) CheckInvariants() []string {
	var v []string
	bad := func(format string, args ...any) {
		v = append(v, "kernel: "+fmt.Sprintf(format, args...))
	}
	// Every hashed page has an identity and sits in the shard and bucket
	// that identity hashes to.
	seen := map[*Object]int{}
	hashed := 0
	for i := range k.shards {
		s := &k.shards[i]
		s.mu.Lock()
		for b := range s.buckets {
			for p := s.buckets[b]; p != nil; p = p.hashNext {
				obj, off, _, ok := p.identity()
				if !ok {
					bad("hashed page has no identity")
					continue
				}
				if h := pageHash(obj, off); k.shardOf(h) != s || s.bucket(h) != &s.buckets[b] {
					bad("page hashed into the wrong shard or bucket")
				}
				seen[obj]++
				hashed++
			}
		}
		s.mu.Unlock()
	}
	// Queue counts are consistent and partition the pages.
	counts := map[int]int{}
	for _, p := range k.pages {
		counts[p.queue]++
		if _, _, _, ok := p.identity(); ok && (p.queue == queueFree || p.queue == queueMagazine) {
			bad("free page still belongs to an object")
		}
		if p.wireCount.Load() > 0 && p.queue != queueNone {
			bad("wired page on a pageable queue")
		}
		if p.flight.Load() != nil && !(p.busy && p.absent) {
			bad("page names a pager flight but is not busy and absent")
		}
	}
	if counts[queueActive] != k.ActiveCount() {
		bad("active count %d vs %d", counts[queueActive], k.ActiveCount())
	}
	if counts[queueInactive] != k.InactiveCount() {
		bad("inactive count %d vs %d", counts[queueInactive], k.InactiveCount())
	}
	// Free-layer invariant: every free page is on exactly one of depot or
	// magazine, and FreeCount() equals magazines + depot.
	freeListed := map[*Page]int{}
	k.depot.mu.Lock()
	depotWalk := 0
	for p := k.depot.q.head; p != nil; p = p.qNext {
		freeListed[p]++
		depotWalk++
		if p.queue != queueFree {
			bad("page on the depot has queue id %d", p.queue)
		}
	}
	if depotWalk != k.depot.q.count {
		bad("depot count %d, walked %d", k.depot.q.count, depotWalk)
	}
	k.depot.mu.Unlock()
	magWalk := 0
	for i := range k.magazines {
		mg := &k.magazines[i]
		mg.mu.Lock()
		walked := 0
		for p := mg.q.head; p != nil; p = p.qNext {
			freeListed[p]++
			walked++
			if p.queue != queueMagazine {
				bad("page in magazine %d has queue id %d", i, p.queue)
			}
			if int(p.mag) != i {
				bad("page in magazine %d is tagged for magazine %d", i, p.mag)
			}
		}
		if walked != mg.q.count {
			bad("magazine %d count %d, walked %d", i, mg.q.count, walked)
		}
		magWalk += walked
		mg.mu.Unlock()
	}
	for _, n := range freeListed {
		if n != 1 {
			bad("a page appears %d times across the free layer", n)
		}
	}
	if depotWalk != counts[queueFree] {
		bad("depot holds %d pages, queue ids say %d", depotWalk, counts[queueFree])
	}
	if magWalk != counts[queueMagazine] {
		bad("magazines hold %d pages, queue ids say %d", magWalk, counts[queueMagazine])
	}
	if depotWalk+magWalk != k.FreeCount() {
		bad("free count %d vs depot %d + magazines %d", k.FreeCount(), depotWalk, magWalk)
	}
	// Every non-free page with an identity is hashed exactly once.
	withIdent := 0
	for _, p := range k.pages {
		if _, _, _, ok := p.identity(); ok {
			withIdent++
		}
	}
	if withIdent != hashed {
		bad("%d pages hold an identity but %d are hashed", withIdent, hashed)
	}
	// Object resident counts match the hash, and the object lists agree.
	for obj, n := range seen {
		obj.mu.Lock()
		resident := obj.resident
		listed := 0
		for p := obj.pageList; p != nil; p = p.objNext {
			listed++
		}
		name := obj.name
		obj.mu.Unlock()
		if resident != n {
			bad("object %q resident=%d, hash says %d", name, resident, n)
		}
		if listed != n {
			bad("object %q lists %d pages, hash says %d", name, listed, n)
		}
	}
	return v
}
