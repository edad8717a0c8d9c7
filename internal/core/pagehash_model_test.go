package core

// The object/offset hash against the structure it replaced. The resident
// page table used to keep a Go map[pageKey]*Page per shard; it now keeps
// the paper's hash buckets chained through the page entries (§3.1). The
// map stays here as the oracle: one shard and one map are driven through
// the same seeded stream of inserts, lookups, removes and re-identifications
// and must agree at every lookup and in their final contents. A second test
// holds the hash function to the distribution the boot-time sizing assumes.

import (
	"math/rand"
	"testing"
)

func TestPageHashMatchesMapModel(t *testing.T) {
	const (
		ops      = 250_000
		nPages   = 512
		nObjects = 24
		nOffsets = 96 // pages per object: a bit over four identities per page
	)
	s := &pageShard{buckets: make([]*Page, 2*nPages)}
	model := map[pageKey]*Page{}
	objs := make([]*Object, nObjects)
	for i := range objs {
		objs[i] = &Object{}
		objs[i].generation.Store(uint64(i + 1))
	}
	free := make([]*Page, nPages)
	for i := range free {
		free[i] = &Page{}
	}
	var resident []*Page

	insert := func(p *Page, key pageKey) {
		p.setIdentity(key.obj, key.offset)
		s.insert(pageHash(key.obj, key.offset), p)
		model[key] = p
	}
	remove := func(p *Page) pageKey {
		key := pageKey{obj: p.identObj.Load(), offset: p.identOff.Load()}
		s.remove(pageHash(key.obj, key.offset), p)
		p.clearIdentity()
		delete(model, key)
		return key
	}
	rng := rand.New(rand.NewSource(17))
	randomKey := func() pageKey {
		return pageKey{obj: objs[rng.Intn(nObjects)], offset: uint64(rng.Intn(nOffsets)) << 12}
	}
	// takeResident removes a random page from the resident list (not the hash).
	takeResident := func() *Page {
		i := rng.Intn(len(resident))
		p := resident[i]
		resident[i] = resident[len(resident)-1]
		resident = resident[:len(resident)-1]
		return p
	}

	for i := 0; i < ops; i++ {
		switch op := rng.Intn(10); {
		case op < 4: // lookup, hit or miss
			key := randomKey()
			if got, want := s.lookup(pageHash(key.obj, key.offset), key.obj, key.offset), model[key]; got != want {
				t.Fatalf("op %d: lookup(%d, %#x) = %p, model has %p", i, key.obj.ID(), key.offset, got, want)
			}
		case op < 7: // insert at a vacant identity
			key := randomKey()
			if len(free) == 0 || model[key] != nil {
				continue
			}
			p := free[len(free)-1]
			free = free[:len(free)-1]
			insert(p, key)
			resident = append(resident, p)
		case op < 9: // remove
			if len(resident) == 0 {
				continue
			}
			p := takeResident()
			key := remove(p)
			if got := s.lookup(pageHash(key.obj, key.offset), key.obj, key.offset); got != nil {
				t.Fatalf("op %d: removed page still found", i)
			}
			if p.hashNext != nil {
				t.Fatalf("op %d: removed page keeps a chain link", i)
			}
			free = append(free, p)
		default: // re-identify, as collapseShadow moves a page between objects
			key := randomKey()
			if len(resident) == 0 || model[key] != nil {
				continue
			}
			p := takeResident()
			remove(p)
			insert(p, key)
			resident = append(resident, p)
		}
	}

	// Final contents: the buckets hold exactly the model's pages, each in
	// the bucket its identity hashes to.
	hashed := 0
	for b := range s.buckets {
		for p := s.buckets[b]; p != nil; p = p.hashNext {
			hashed++
			key := pageKey{obj: p.identObj.Load(), offset: p.identOff.Load()}
			if model[key] != p {
				t.Fatalf("bucket %d holds a page the model does not have at (%d, %#x)", b, key.obj.ID(), key.offset)
			}
			if s.bucket(pageHash(key.obj, key.offset)) != &s.buckets[b] {
				t.Fatalf("page (%d, %#x) sits in bucket %d, not its own", key.obj.ID(), key.offset, b)
			}
		}
	}
	if hashed != len(model) || hashed != len(resident) {
		t.Fatalf("buckets hold %d pages, model %d, resident list %d", hashed, len(model), len(resident))
	}
}

// TestPageHashDistribution fills a booted kernel's hash to the load factor
// it was sized for (½) with the densest pattern real worlds produce — a few
// dozen objects, each resident over a run of consecutive offsets — and
// checks that no chain is long and no shard is lopsided.
func TestPageHashDistribution(t *testing.T) {
	k := newTestKernel(t)
	const nObjects = 64
	total := 0
	for i := range k.shards {
		total += len(k.shards[i].buckets)
	}
	if total < 2*k.TotalPages() || total >= 4*k.TotalPages() {
		t.Fatalf("%d buckets for %d resident pages: want a load factor in (¼, ½]", total, k.TotalPages())
	}
	perObject := total / 2 / nObjects
	shardLoad := make([]int, numPageShards)
	chain := map[**Page]int{}
	longest := 0
	for o := 0; o < nObjects; o++ {
		obj := k.NewObject(uint64(perObject)*k.pageSize, nil, "dist")
		for i := 0; i < perObject; i++ {
			h := pageHash(obj, uint64(i)*k.pageSize)
			shardLoad[h&(numPageShards-1)]++
			b := k.shardOf(h).bucket(h)
			chain[b]++
			longest = max(longest, chain[b])
		}
	}
	if longest > 8 {
		t.Errorf("longest chain %d at load factor ½; want at most 8", longest)
	}
	mean := float64(nObjects*perObject) / numPageShards
	for i, n := range shardLoad {
		if float64(n) > 2*mean || float64(n) < mean/2 {
			t.Errorf("shard %d holds %d identities; mean is %.1f", i, n, mean)
		}
	}
	t.Logf("%d identities over %d buckets: longest chain %d, %d buckets in use", nObjects*perObject, total, longest, len(chain))
}
