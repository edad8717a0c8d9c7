package main

// anon_fault: the resident-hit and zero-fill fault path of a machine with
// no hardware page tables.
//
// Why it is here: core.fault's resident/zero-fill path, core.map's lookup
// through the treap, core.page's magazines and pmap.enter do nearly all the
// work; pagers, pageout and object shadowing do none. It is also the
// reads-beside-writes workload for the address map: lookups race nothing
// here, but every step pays two map mutations, so a read path made faster
// at the mutators' expense shows.

import (
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/tlbonly"
	"machvm/internal/task"
	"machvm/internal/vmtypes"
)

const (
	anonRegions     = 32 // live regions in the ring
	anonRegionPages = 64
	anonReads       = 1024 // random read touches per step
)

type anonRegion struct {
	va     vmtypes.VA
	serial uint64 // which allocation this is; part of every page's tag
}

type anonFault struct {
	kernelWorkload
	task   *task.Task
	th     *task.Thread
	ring   [anonRegions]anonRegion
	oldest int
	serial uint64
	rng    lcg
	buf    [8]byte
}

func anonTag(serial uint64, page int) uint64 { return mix64(serial<<16 | uint64(page)) }

func buildAnonFault(seed uint64, tr *tracer) (stream, error) {
	w, err := newWorld(worldConfig{
		cost:     tlbonly.DefaultCost(),
		hwPage:   tlbonly.HWPageSize,
		memBytes: 64 << 20,
		cpus:     1,
		strategy: pmap.ShootImmediate,
		newModule: func(m *hw.Machine, s pmap.Strategy) pmap.Module {
			return tlbonly.New(m, s)
		},
	}, tr)
	if err != nil {
		return nil, err
	}
	a := &anonFault{rng: newLCG(seed, 0xA707)}
	a.w = w
	a.task = task.New(w.k, "anon")
	a.th = w.spawn(a.task, 0)
	for i := range a.ring {
		if err := a.fill(i); err != nil {
			return nil, err
		}
	}
	return warm(a, 64)
}

// fill allocates a fresh region into ring slot i and zero-fills it, writing
// each page's tag.
func (a *anonFault) fill(i int) error {
	va, err := a.w.allocate(a.task.Map, anonRegionPages*pageSize, 0)
	if err != nil {
		return err
	}
	a.serial++
	a.ring[i] = anonRegion{va: va, serial: a.serial}
	for p := 0; p < anonRegionPages; p++ {
		putTag(a.buf[:], anonTag(a.serial, p))
		if err := a.w.access(a.th, va+vmtypes.VA(p*pageSize), a.buf[:], true); err != nil {
			return err
		}
	}
	return nil
}

// step retires the oldest region, zero-fills a new one, then reads 1 024
// random pages of the 2 048 live ones. An op is one fault.
func (a *anonFault) step() (ops, failed int) {
	faults0 := a.w.k.Stats().Faults.Load()
	old := a.ring[a.oldest]
	if err := a.w.deallocate(a.task.Map, old.va, anonRegionPages*pageSize, 0); err != nil {
		a.add("deallocate: %v", err)
		failed++
	}
	if err := a.fill(a.oldest); err != nil {
		a.add("fill: %v", err)
		failed++
	}
	a.oldest = (a.oldest + 1) % anonRegions
	for i := 0; i < anonReads; i++ {
		r := a.rng.next()
		reg := &a.ring[r%anonRegions]
		page := int(r / anonRegions % anonRegionPages)
		err := a.w.access(a.th, reg.va+vmtypes.VA(page*pageSize), a.buf[:], false)
		if err != nil {
			a.add("read: %v", err)
			failed++
		} else if got, want := getTag(a.buf[:]), anonTag(reg.serial, page); got != want {
			a.add("region %d page %d: read %#x, want %#x", reg.serial, page, got, want)
			failed++
		}
	}
	return int(a.w.k.Stats().Faults.Load() - faults0), failed
}

func (a *anonFault) close() {
	a.th.Detach()
	a.task.Destroy()
}

// noPaging is the guard of the two workloads that must never reach a pager
// or the pageout daemon (all of anon_fault's guard, part of fork_cow's).
func noPaging(p *pass) []string {
	var v []string
	c := p.delta.core
	if n := c.PagerRoundTrips + c.Pageins; n > 0 {
		v = append(v, "pager calls on a workload that must make none")
	}
	if n := c.Pageouts + c.PageoutRuns; n > 0 {
		v = append(v, "pageout on a workload that must see none")
	}
	return v
}
