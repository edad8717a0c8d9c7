package main

// server_open: eight tenants churning short-lived request tasks under
// memory pressure, with an open-loop latency-versus-load curve.
//
// Why it is here: every layer does a moderate share, as in production — fork
// and exit, copy-on-write, file page-ins through the inode pager, anonymous
// pageout to swap, map mutation, zero fill. It is the workload with a
// latency curve that bends, and the one where queueing amplifies a
// service-time change near the knee.

import (
	"fmt"

	"machvm/internal/core"
	"machvm/internal/pager"
	"machvm/internal/pmap"
	"machvm/internal/task"
	"machvm/internal/unixfs"
	"machvm/internal/vmtypes"
)

const (
	serverTenants    = 8
	serverImagePages = 32
	serverAnonPages  = 48
	serverWorkPages  = 16
	serverTouches    = 48
	serverScanEvery  = 16
	serverRecycle    = 64 // forks per tenant before its base task is rebuilt
	// The tenants' footprint is about 1.5x this much memory: 8 x (32 image +
	// 48 anonymous) = 640 pages, the copy each of a base task's uncollapsed
	// shadow objects keeps (up to 64 per tenant, README known findings), and
	// the request in flight.
	serverRAMPages = 704
)

type serverTenant struct {
	id     int
	image  string
	obj    *core.Object // the image's memory object, once created
	base   *task.Task
	baseTh *task.Thread
	anonVA vmtypes.VA
	anon   [serverAnonPages]uint64 // expected tag of each anonymous page
	forks  int
}

type serverOpen struct {
	kernelWorkload
	fs      *unixfs.FS
	inode   *pager.InodePager
	inodeP  core.Pager // the inode pager as the kernel sees it
	tenants [serverTenants]*serverTenant
	salt    uint64
	n       int                          // requests so far
	block   [3 * (serverTenants - 2)]int // the current block's tenant order
	next    int                          // position in block
	rng     lcg
	service []int64 // virtual ns per request
	buf     [8]byte
}

func buildServerOpen(seed uint64, tr *tracer) (stream, error) {
	w, err := vax8200World(serverRAMPages*pageSize, serverCPUs, pmap.ShootImmediate, tr)
	if err != nil {
		return nil, err
	}
	s := &serverOpen{rng: newLCG(seed, 0x5E7E), salt: mix64(seed ^ 0x5E7E)}
	s.next = len(s.block)
	s.w = w
	w.disk = unixfs.NewDisk(w.machine, 64<<20/unixfs.BlockSize)
	s.fs = unixfs.NewFS(w.disk)
	s.inode = pager.NewInodePager(s.fs)
	s.inodeP = w.wrapPager(s.inode, "inode", nInodeRequest, nInodeWrite, trackInode, false, nil)
	// Anonymous memory pages out to the kernel's built-in default pager.
	// internal/pager's SwapPager cannot be used here: it answers a request
	// for a page it never received with a page of zeroes whenever a later
	// page of the same object has been written, which hides the data a
	// deeper object of a shadow chain holds (README, known findings) — the
	// content model catches it within the first hundred requests.
	w.k.SetSwapPager(w.wrapPager(w.k.SwapPager(), "swap", nSwapRequest, nSwapWrite, trackSwap, false, nil))

	img := make([]byte, serverImagePages*pageSize)
	for t := range s.tenants {
		tn := &serverTenant{id: t, image: fmt.Sprintf("t%d/app", t)}
		for p := 0; p < serverImagePages; p++ {
			for j := 0; j < wordsPerPage; j++ {
				putTag(img[p*pageSize+8*j:], s.imageWord(t, p))
			}
		}
		if _, err := s.fs.Create(tn.image, img); err != nil {
			return nil, err
		}
		s.tenants[t] = tn
		if err := s.newBase(tn); err != nil {
			return nil, err
		}
	}
	if _, err := warm(s, 4*serverRecycle); err != nil {
		return nil, err
	}
	s.service = s.service[:0] // warm-up requests are not replayed
	return s, nil
}

func (s *serverOpen) imageWord(tenant, page int) uint64 {
	return mix64(s.salt ^ uint64(tenant)<<8 ^ uint64(page))
}

// newBase builds a tenant's long-lived base task from scratch: 48 dirty
// anonymous pages.
func (s *serverOpen) newBase(tn *serverTenant) error {
	cpu := tn.id % serverCPUs
	tn.base = task.New(s.w.k, fmt.Sprintf("tenant%d", tn.id))
	tn.baseTh = s.w.spawn(tn.base, cpu)
	tn.forks = 0
	var err error
	if tn.anonVA, err = s.w.allocate(tn.base.Map, serverAnonPages*pageSize, cpu); err != nil {
		return err
	}
	for p := 0; p < serverAnonPages; p++ {
		if !s.writeAnon(tn, p) {
			return fmt.Errorf("server_open: populating tenant %d failed", tn.id)
		}
	}
	return nil
}

func (s *serverOpen) retireBase(tn *serverTenant) {
	tn.baseTh.Detach()
	s.w.destroy(tn.base, tn.id%serverCPUs)
}

// writeAnon stores a fresh tag in one of the base task's anonymous pages.
func (s *serverOpen) writeAnon(tn *serverTenant, page int) bool {
	tag := mix64(s.rng.next())
	putTag(s.buf[:], tag)
	if err := s.w.access(tn.baseTh, tn.anonVA+vmtypes.VA(page*pageSize), s.buf[:], true); err != nil {
		s.add("tenant %d write: %v", tn.id, err)
		return false
	}
	tn.anon[page] = tag
	return true
}

// expect reads the word at va through th and compares it with want.
func (s *serverOpen) expect(th *task.Thread, va vmtypes.VA, want uint64, what string) bool {
	if err := s.w.access(th, va, s.buf[:], false); err != nil {
		s.add("%s: %v", what, err)
		return false
	}
	if got := getTag(s.buf[:]); got != want {
		s.add("%s: read %#x, want %#x", what, got, want)
		return false
	}
	return true
}

// imageObject returns a referenced memory object for the tenant's image:
// revived from the object cache when it is there (the Mach read path),
// created over the inode pager otherwise.
func (s *serverOpen) imageObject(tn *serverTenant) (*core.Object, error) {
	if tn.obj != nil {
		if s.w.k.LookupCached(tn.obj) {
			return tn.obj, nil
		}
		if tn.obj.Refs() > 0 {
			tn.obj.Reference()
			return tn.obj, nil
		}
	}
	ino, err := s.fs.Open(tn.image)
	if err != nil {
		return nil, err
	}
	obj := s.w.k.NewObject(ino.Size(), s.inodeP, "file:"+tn.image)
	s.inode.Bind(obj, ino)
	obj.SetCanPersist(true)
	tn.obj = obj
	return obj, nil
}

// pickTenant sends two thirds of the traffic to tenants 0 and 1. Requests
// come in blocks of 18 — six for each of the two hot tenants, one for each
// of the other six — in an order the seed shuffles, so every run carries
// exactly the same mix and a cold tenant is never more than 34 requests
// away from its last visit.
func (s *serverOpen) pickTenant() *serverTenant {
	if s.next == len(s.block) {
		n := 0
		for t := 0; t < serverTenants; t++ {
			visits := 1
			if t < 2 {
				visits = len(s.block) / 3
			}
			for i := 0; i < visits; i++ {
				s.block[n] = t
				n++
			}
		}
		for i := len(s.block) - 1; i > 0; i-- {
			j := s.rng.n(i + 1)
			s.block[i], s.block[j] = s.block[j], s.block[i]
		}
		s.next = 0
	}
	s.next++
	return s.tenants[s.block[s.next-1]]
}

// step serves one request: fork the tenant's base task, the parent writes
// one anonymous page and the child reads its own copy of it, map the
// tenant's image and stride through it, allocate 16 work pages, 48 random
// reads and writes, exit; every 16th request also carries a pageout scan.
// The request's service time is its virtual-clock delta.
func (s *serverOpen) step() (ops, failed int) {
	tn := s.pickTenant()
	if tn.forks == serverRecycle {
		s.retireBase(tn)
		if err := s.newBase(tn); err != nil {
			s.add("rebuilding tenant %d: %v", tn.id, err)
			return 1, 1
		}
	}
	tn.forks++
	s.n++
	start := s.w.virtNow()
	check := func(ok bool) {
		if !ok {
			failed++
		}
	}
	cpu := s.n % serverCPUs

	child := s.w.fork(tn.base, "req", tn.id%serverCPUs)
	th := s.w.spawn(child, cpu)
	snapshot := tn.anon

	page := s.rng.n(serverAnonPages)
	check(s.writeAnon(tn, page))
	check(s.expect(th, tn.anonVA+vmtypes.VA(page*pageSize), snapshot[page], "child's copy of the page its parent rewrote"))

	var imageVA vmtypes.VA
	mapped := false
	obj, err := s.imageObject(tn)
	if err == nil {
		if imageVA, err = s.w.mapObject(child.Map, obj, vmtypes.ProtRead|vmtypes.ProtExecute, cpu); err != nil {
			s.w.k.ReleaseObjectRef(obj)
		}
	}
	if err != nil {
		s.add("mapping tenant %d's image: %v", tn.id, err)
		failed++
	} else {
		mapped = true
		for p := 0; p < serverImagePages; p += 2 {
			check(s.expect(th, imageVA+vmtypes.VA(p*pageSize), s.imageWord(tn.id, p), "image page"))
		}
	}

	var work [serverWorkPages]uint64
	workVA, err := s.w.allocate(child.Map, serverWorkPages*pageSize, cpu)
	if err != nil {
		s.add("allocating work pages: %v", err)
		failed++
	} else {
		for i := 0; i < serverTouches; i++ {
			r := s.rng.next()
			switch r & 3 {
			case 0: // write a work page
				p := int(r >> 2 % serverWorkPages)
				work[p] = mix64(r)
				putTag(s.buf[:], work[p])
				if err := s.w.access(th, workVA+vmtypes.VA(p*pageSize), s.buf[:], true); err != nil {
					s.add("work write: %v", err)
					failed++
				}
			case 1: // read a work page (zero until written)
				p := int(r >> 2 % serverWorkPages)
				check(s.expect(th, workVA+vmtypes.VA(p*pageSize), work[p], "work page"))
			case 2: // read inherited anonymous memory
				p := int(r >> 2 % serverAnonPages)
				check(s.expect(th, tn.anonVA+vmtypes.VA(p*pageSize), snapshot[p], "inherited page"))
			case 3: // read the image
				p := int(r >> 2 % serverImagePages)
				if mapped {
					check(s.expect(th, imageVA+vmtypes.VA(p*pageSize), s.imageWord(tn.id, p), "image page"))
				}
			}
		}
	}

	th.Detach()
	s.w.destroy(child, cpu)
	if s.n%serverScanEvery == 0 {
		s.w.scan()
	}
	s.service = append(s.service, s.w.virtNow()-start)
	return 1, min(failed, 1)
}

func (s *serverOpen) extras() map[string]float64 { return openLoopMetrics(s.service) }

func (s *serverOpen) close() {
	for _, tn := range s.tenants {
		if tn != nil && tn.base != nil {
			s.retireBase(tn)
		}
	}
}

// guardServerOpen: the latency curve must bend between the low and the high
// rate, or the open loop exerts no load.
func guardServerOpen(p *pass) []string {
	if r1, r3 := p.extras["req_p99_vms_r1"], p.extras["req_p99_vms_r3"]; r3 < 2*r1 {
		return []string{fmt.Sprintf("no knee: p99 %.1f vms at r3 is under 2x the %.1f vms at r1", r3, r1)}
	}
	return nil
}
