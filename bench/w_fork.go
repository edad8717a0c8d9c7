package main

// fork_cow: Table 7-1's fork row at scale, on a 4-CPU VAX.
//
// Why it is here: task and core.map bulk mutation (fork, destroy, protect),
// core.object shadow creation and chain walk, pmap.protect / copy_on_write /
// remove and the hw layer's IPIs dominate; resident-hit lookups and pagers
// are negligible. It is the workload a shadow-chain fix or a map-mutator
// change must move.

import (
	"fmt"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/vax"
	"machvm/internal/task"
	"machvm/internal/vmtypes"
)

const (
	forkPrivatePages = 64
	forkSharedPages  = 16
	forkRecycle      = 64 // forks per parent before it is rebuilt from scratch
)

// forkSpace is the expected content of one address space: a tag per page
// of the private range (copied at fork) and a pointer to the tags of the
// shared range (shared at fork).
type forkSpace struct {
	private [forkPrivatePages]uint64
	shared  *[forkSharedPages]uint64
}

type forkCow struct {
	kernelWorkload
	parent   *task.Task
	parentTh *task.Thread
	privVA   vmtypes.VA
	sharedVA vmtypes.VA
	model    forkSpace
	forks    int // forks by the current parent
	cycles   int
	rng      lcg
	buf      [8]byte
}

func vax8200World(memBytes, cpus int, strategy pmap.Strategy, tr *tracer) (*world, error) {
	return newWorld(worldConfig{
		cost:     vax.Cost8200(),
		hwPage:   vax.HWPageSize,
		memBytes: memBytes,
		cpus:     cpus,
		strategy: strategy,
		newModule: func(m *hw.Machine, s pmap.Strategy) pmap.Module {
			return vax.New(m, s)
		},
	}, tr)
}

func buildForkCow(seed uint64, tr *tracer) (stream, error) {
	w, err := vax8200World(64<<20, 4, pmap.ShootImmediate, tr)
	if err != nil {
		return nil, err
	}
	f := &forkCow{rng: newLCG(seed, 0xF08C)}
	f.w = w
	if err := f.newParent(); err != nil {
		return nil, err
	}
	return warm(f, forkRecycle)
}

// newParent builds a parent from scratch: 64 dirty private pages and 16
// pages inherited shared.
func (f *forkCow) newParent() error {
	f.parent = task.New(f.w.k, "parent")
	f.parentTh = f.w.spawn(f.parent, 0)
	f.forks = 0
	f.model = forkSpace{shared: new([forkSharedPages]uint64)}
	var err error
	if f.privVA, err = f.w.allocate(f.parent.Map, forkPrivatePages*pageSize, 0); err != nil {
		return err
	}
	if f.sharedVA, err = f.w.allocate(f.parent.Map, forkSharedPages*pageSize, 0); err != nil {
		return err
	}
	if err := f.parent.Map.SetInherit(f.sharedVA, forkSharedPages*pageSize, vmtypes.InheritShared); err != nil {
		return err
	}
	for p := 0; p < forkPrivatePages; p++ {
		if !f.write(f.parentTh, &f.model, false, p) {
			return fmt.Errorf("fork_cow: populating the parent failed")
		}
	}
	for p := 0; p < forkSharedPages; p++ {
		if !f.write(f.parentTh, &f.model, true, p) {
			return fmt.Errorf("fork_cow: populating the parent failed")
		}
	}
	return nil
}

func (f *forkCow) retireParent() {
	f.parentTh.Detach()
	f.w.destroy(f.parent, 0)
}

func (f *forkCow) va(shared bool, page int) vmtypes.VA {
	if shared {
		return f.sharedVA + vmtypes.VA(page*pageSize)
	}
	return f.privVA + vmtypes.VA(page*pageSize)
}

// write stores a fresh tag in a page through th and records it in the
// address space's model.
func (f *forkCow) write(th *task.Thread, m *forkSpace, shared bool, page int) bool {
	tag := mix64(f.rng.next())
	putTag(f.buf[:], tag)
	if err := f.w.access(th, f.va(shared, page), f.buf[:], true); err != nil {
		f.add("write: %v", err)
		return false
	}
	if shared {
		m.shared[page] = tag
	} else {
		m.private[page] = tag
	}
	return true
}

// read checks a page against the address space's model.
func (f *forkCow) read(th *task.Thread, m *forkSpace, shared bool, page int) bool {
	if err := f.w.access(th, f.va(shared, page), f.buf[:], false); err != nil {
		f.add("read: %v", err)
		return false
	}
	want := m.private[page]
	if shared {
		want = m.shared[page]
	}
	if got := getTag(f.buf[:]); got != want {
		f.add("page %d (shared=%v): read %#x, want %#x", page, shared, got, want)
		return false
	}
	return true
}

// step is one fork cycle: the parent forks a child with threads on two
// other CPUs; the child writes a quarter of the private pages, the parent an
// eighth, the child reads a quarter back, one write goes to the shared
// range, the child protects 8 pages, every fourth child forks a grandchild
// that writes 8 pages; the child exits.
func (f *forkCow) step() (ops, failed int) {
	if f.forks == forkRecycle {
		f.retireParent()
		if err := f.newParent(); err != nil {
			f.add("rebuilding the parent: %v", err)
			return 1, 1
		}
	}
	f.forks++
	f.cycles++
	check := func(ok bool) {
		if !ok {
			failed++
		}
	}

	child := f.w.fork(f.parent, "child", 0)
	model := f.model // private tags copied, shared tags shared
	th1, th2 := f.w.spawn(child, 1), f.w.spawn(child, 2)

	base := f.rng.n(forkPrivatePages)
	for i := 0; i < forkPrivatePages/4; i++ {
		th := th1
		if i%2 == 1 {
			th = th2
		}
		check(f.write(th, &model, false, (base+i)%forkPrivatePages))
	}
	pbase := f.rng.n(forkPrivatePages)
	for i := 0; i < forkPrivatePages/8; i++ {
		check(f.write(f.parentTh, &f.model, false, (pbase+i)%forkPrivatePages))
	}
	rbase := f.rng.n(forkPrivatePages)
	for i := 0; i < forkPrivatePages/4; i++ {
		th := th2
		if i%2 == 1 {
			th = th1
		}
		check(f.read(th, &model, false, (rbase+i)%forkPrivatePages))
	}
	sp := f.rng.n(forkSharedPages)
	check(f.write(th1, &model, true, sp))
	check(f.read(f.parentTh, &f.model, true, sp))

	prot := f.rng.n(forkPrivatePages - 8)
	if err := f.w.protect(child.Map, f.va(false, prot), 8*pageSize, vmtypes.ProtRead, 1); err != nil {
		f.add("protect: %v", err)
		failed++
	}
	check(f.read(th2, &model, false, prot))

	if f.cycles%4 == 0 {
		grand := f.w.fork(child, "grandchild", 1)
		gmodel := model
		gth := f.w.spawn(grand, 3)
		// The protected pages were inherited read-only; write the 8 after
		// them (prot+8+i wraps only when prot > 48, clear of [prot, prot+8)).
		for i := 0; i < 8; i++ {
			check(f.write(gth, &gmodel, false, (prot+8+i)%forkPrivatePages))
		}
		gth.Detach()
		f.w.destroy(grand, 3)
	}

	th1.Detach()
	th2.Detach()
	f.w.destroy(child, 1)
	return 1, min(failed, 1) // the op is the cycle: it fails once, however many checks did
}

func (f *forkCow) close() { f.retireParent() }

// guardForkCow: no pager or pageout traffic, and the child's two CPUs must
// have made the shootdowns cost IPIs.
func guardForkCow(p *pass) []string {
	v := noPaging(p)
	if p.delta.ext[cIPIs] == 0 {
		v = append(v, "no IPIs sent: the multiprocessor shootdown path was not exercised")
	}
	return v
}
