package main

// paging_tiered: a working set of 1.5x RAM behind the full pager stack.
//
// Why it is here: core.pageout, core.pagerflight, the compressed tier, the
// network pager and its backend do most of the work; map lookup and fork do
// none. It is the only workload with background goroutines (the tier's
// writeback worker, the netpager reader, one server goroutine per frame),
// so it is also where host scheduling cost shows.

import (
	"fmt"
	"net"

	"machvm/internal/hw"
	"machvm/internal/pager/netpager"
	"machvm/internal/pager/ztier"
	"machvm/internal/pmap"
	"machvm/internal/task"
	"machvm/internal/vmtypes"
)

const (
	pagingRAMBytes   = 2 << 20
	pagingRAMPages   = pagingRAMBytes / pageSize
	pagingPages      = pagingRAMPages * 3 / 2 // the object: 1.5x RAM
	pagingHotPages   = pagingRAMPages / 4     // half the touches land here
	pagingFreeMin    = pagingRAMPages / 32    // the kernel's own default low-water mark
	pagingTierBudget = 512 << 10
	pagingBatch      = 64 // touches per step
	wordsPerPage     = pageSize / 8
	// pagingRandWords is how many leading words of a compressible page are
	// random; the rest repeat one word, so such a page compresses to about
	// this share of its size.
	pagingRandWords = wordsPerPage / 4
	// pagingNetDelayNS is the fixed network round trip the backend charges
	// per conversation, on top of the machine's disk latency and transfer
	// rate (the same shape as cmd/benchtables' delayedStorePager).
	pagingNetDelayNS = 2_000_000
)

// delayBackend is the store behind the wire: netpager's MemBackend plus a
// fixed virtual disk+network cost per conversation.
type delayBackend struct {
	*netpager.MemBackend
	machine *hw.Machine
}

func (b *delayBackend) charge(bytes int) {
	b.machine.Charge(b.machine.Cost.DiskLatency + pagingNetDelayNS)
	b.machine.ChargeKB(b.machine.Cost.DiskPerKB, bytes)
}

func (b *delayBackend) DataRequest(obj, off uint64, length int) ([]byte, error) {
	data, err := b.MemBackend.DataRequest(obj, off, length)
	b.charge(len(data))
	return data, err
}

func (b *delayBackend) DataWrite(obj, off uint64, data []byte) error {
	b.charge(len(data))
	return b.MemBackend.DataWrite(obj, off, data)
}

type pagingTiered struct {
	kernelWorkload
	task    *task.Task
	th      *task.Thread
	base    vmtypes.VA
	salt    uint64
	version [pagingPages]uint64 // word 0 of each page, as last written
	ops     uint64
	rng     lcg
	page    [pageSize]byte

	tier   *ztier.Tier
	client *netpager.Client
	served chan error
}

// word is the expected content of word j of page p before any write: every
// fourth page is random throughout (poorly compressible), the others are
// random for their first half and repeat one word after it.
func (pt *pagingTiered) word(p, j int) uint64 {
	if p%4 != 3 && j >= pagingRandWords {
		j = pagingRandWords
	}
	return mix64(pt.salt ^ uint64(p)<<20 ^ uint64(j))
}

func (pt *pagingTiered) expected(p, j int) uint64 {
	if j == 0 {
		return pt.version[p]
	}
	return pt.word(p, j)
}

func buildPagingTiered(seed uint64, tr *tracer) (stream, error) {
	w, err := vax8200World(pagingRAMBytes, 1, pmap.ShootDeferred, tr)
	if err != nil {
		return nil, err
	}
	pt := &pagingTiered{rng: newLCG(seed, 0x7136), salt: mix64(seed), served: make(chan error, 1)}
	pt.w = w

	// ztier -> netpager client -> net.Pipe -> netpager server -> backend.
	near, far := net.Pipe()
	var link *spanLink
	var backend netpager.Backend = &delayBackend{MemBackend: netpager.NewMemBackend(pageSize), machine: w.machine}
	if tr != nil {
		link = newSpanLink()
		tb := &tracedBackend{Backend: backend, t: tr, link: link}
		backend = tb
		w.pagerErrs = map[string]func() uint64{"backend": tb.errs.Load}
	}
	go func() { pt.served <- netpager.Serve(far, backend) }()
	pt.client = netpager.NewClient(near, "net")
	lower := w.wrapPager(pt.client, "netpager", nNetRequest, nNetWrite, trackNetpager, true, link)
	pt.tier = ztier.New(lower, ztier.Config{
		Budget:   pagingTierBudget,
		PageSize: pageSize,
		Machine:  w.machine,
		Stats:    w.k.Stats(),
	})
	top := w.wrapPager(pt.tier, "ztier", nZtierRequest, nZtierWrite, trackZtier, false, nil)

	obj := w.k.NewObject(pagingPages*pageSize, top, "tiered")
	pt.task = task.New(w.k, "pager-client")
	pt.th = w.spawn(pt.task, 0)
	if pt.base, err = w.mapObject(pt.task.Map, obj, vmtypes.ProtDefault, 0); err != nil {
		pt.close()
		return nil, err
	}
	for p := 0; p < pagingPages; p++ {
		for j := 0; j < wordsPerPage; j++ {
			putTag(pt.page[8*j:], pt.word(p, j))
		}
		pt.version[p] = pt.word(p, 0)
		if err := w.access(pt.th, pt.base+vmtypes.VA(p*pageSize), pt.page[:], true); err != nil {
			pt.close()
			return nil, fmt.Errorf("paging_tiered: populating page %d: %w", p, err)
		}
		pt.daemon()
	}
	return warm(pt, 64)
}

// daemon plays the pageout daemon deterministically: one scan whenever free
// memory is below the kernel's low-water mark, exactly where the daemon's
// ticker would run one. (Without it the allocator would scan from inside a
// fault, where no span can tell pageout from page-in.)
func (pt *pagingTiered) daemon() {
	if pt.w.k.FreeCount() < pagingFreeMin {
		pt.w.scan()
	}
}

// step is 64 touches: half in the hot set, half uniform over the object; a
// quarter are writes of a new version word, the rest reads of two words
// checked against the model.
func (pt *pagingTiered) step() (ops, failed int) {
	buf := pt.page[:16]
	for i := 0; i < pagingBatch; i++ {
		where, what := pt.rng.next(), pt.rng.next()
		p := int(where >> 3 % pagingPages)
		if where&7 < 3 {
			p = int(where >> 3 % pagingHotPages)
		}
		va := pt.base + vmtypes.VA(p*pageSize)
		pt.ops++
		if what&3 == 0 { // a quarter of the touches
			v := mix64(pt.salt + pt.ops)
			putTag(buf, v)
			if err := pt.w.access(pt.th, va, buf[:8], true); err != nil {
				pt.add("write page %d: %v", p, err)
				failed++
			} else {
				pt.version[p] = v
			}
		} else {
			j := int(what >> 2 % (wordsPerPage - 1))
			if err := pt.w.access(pt.th, va+vmtypes.VA(8*j), buf, false); err != nil {
				pt.add("read page %d: %v", p, err)
				failed++
			} else if g0, g1 := getTag(buf), getTag(buf[8:]); g0 != pt.expected(p, j) || g1 != pt.expected(p, j+1) {
				pt.add("page %d words %d,%d: read %#x %#x, want %#x %#x", p, j, j+1, g0, g1, pt.expected(p, j), pt.expected(p, j+1))
				failed++
			}
		}
		pt.daemon()
	}
	return pagingBatch, failed
}

func (pt *pagingTiered) close() {
	if pt.th != nil {
		pt.th.Detach()
		pt.task.Destroy()
	}
	pt.tier.Close()
	pt.client.Close() // ends the server's read loop
	<-pt.served
}

// guardPagingTiered: at least a quarter of the touches must reach the pager
// stack, and the compressed tier must be neither useless nor sufficient.
func guardPagingTiered(p *pass) []string {
	var v []string
	c := p.delta.core
	if share := ratio(c.PagerRoundTrips, uint64(p.ops)); share < 0.25 {
		v = append(v, fmt.Sprintf("only %.1f%% of ops took a pager-path fault (want >= 25%%)", 100*share))
	}
	if hit := ratio(c.ZtierHits, c.ZtierHits+c.ZtierMisses); hit < 0.5 || hit > 0.9 {
		v = append(v, fmt.Sprintf("compressed-tier hit ratio %.2f outside 0.5-0.9", hit))
	}
	return v
}
