package main

// A world is one booted simulated machine plus its Mach kernel, built by the
// benchmark itself so that — in the traced pass only — the pmap module and
// the pagers can be handed to the kernel already decorated. The public calls
// that are not interfaces (task.Fork, Map.Allocate, Thread.Read, ...) are
// made through the timer helpers below, which are plain calls when no
// tracer is attached.

import (
	"encoding/binary"
	"fmt"
	"reflect"

	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/task"
	"machvm/internal/unixfs"
	"machvm/internal/vmtypes"
)

const pageSize = 4096 // Mach page size of every kernel workload

// lcg is the benchmark's only source of randomness: a 64-bit linear
// congruential generator seeded from -seed.
type lcg uint64

func newLCG(seed, salt uint64) lcg {
	l := lcg(seed*0x9E3779B97F4A7C15 + salt)
	l.next()
	return l
}

func (l *lcg) next() uint64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return uint64(*l) >> 33
}

// n returns a value in [0, k).
func (l *lcg) n(k int) int { return int(l.next() % uint64(k)) }

// mix64 is splitmix64's finalizer: the content model derives the expected
// bytes of any word of any page from it, so nothing has to be stored.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// worldConfig describes the machine to boot.
type worldConfig struct {
	cost      hw.CostModel
	hwPage    int
	memBytes  int
	cpus      int
	strategy  pmap.Strategy
	newModule func(*hw.Machine, pmap.Strategy) pmap.Module
	kernel    core.Config // Machine, Module and PageSize are filled in
}

type world struct {
	machine *hw.Machine
	mod     pmap.Module // the module itself, never the decorator
	k       *core.Kernel
	tr      *tracer
	disk    *unixfs.Disk // nil when the world has no filesystem

	// pagerErrs reports the errors each decorated pager layer saw, keyed
	// by layer name ("inode", "swap", ...); nil in the untraced pass.
	pagerErrs map[string]func() uint64
}

func newWorld(cfg worldConfig, tr *tracer) (*world, error) {
	m := hw.NewMachine(hw.Config{
		Cost:       cfg.cost,
		HWPageSize: cfg.hwPage,
		PhysFrames: cfg.memBytes / cfg.hwPage,
		CPUs:       cfg.cpus,
		TLBSize:    64,
	})
	mod := cfg.newModule(m, cfg.strategy)
	kcfg := cfg.kernel
	kcfg.Machine = m
	kcfg.Module = mod
	kcfg.PageSize = pageSize
	if tr != nil {
		tr.attach(m)
		kcfg.Module = &tracedModule{Module: mod, t: tr}
	}
	k, err := core.NewKernel(kcfg)
	if err != nil {
		return nil, err
	}
	return &world{machine: m, mod: mod, k: k, tr: tr}, nil
}

// wrapPager decorates p in the traced pass and returns it unchanged
// otherwise.
func (w *world) wrapPager(p core.Pager, layer string, req, write nameID, track int, nested bool, link *spanLink) core.Pager {
	if w.tr == nil {
		return p
	}
	tp := &tracedPager{inner: p, t: w.tr, req: req, write: write, track: track, nested: nested, link: link}
	if w.pagerErrs == nil {
		w.pagerErrs = make(map[string]func() uint64)
	}
	w.pagerErrs[layer] = tp.errs.Load
	return tp
}

func (w *world) virtNow() int64 {
	w.machine.FlushAllCharges()
	return w.machine.Clock.Now()
}

// Timer helpers: the public calls of task, core.Map and core.Kernel.

func (w *world) fork(parent *task.Task, name string, cpu int) *task.Task {
	w.tr.begin(nTaskFork, cpu)
	child := parent.Fork(name)
	w.tr.end()
	return child
}

func (w *world) destroy(t *task.Task, cpu int) {
	w.tr.begin(nTaskDestroy, cpu)
	t.Destroy()
	w.tr.end()
}

func (w *world) spawn(t *task.Task, cpu int) *task.Thread {
	w.tr.begin(nTaskThread, cpu)
	th := t.SpawnThread(w.machine.CPU(cpu))
	w.tr.end()
	return th
}

func (w *world) allocate(m *core.Map, size uint64, cpu int) (vmtypes.VA, error) {
	w.tr.begin(nMapAllocate, cpu)
	va, err := m.Allocate(0, size, true)
	w.tr.end()
	return va, err
}

func (w *world) mapObject(m *core.Map, obj *core.Object, prot vmtypes.Prot, cpu int) (vmtypes.VA, error) {
	w.tr.begin(nMapAllocate, cpu)
	va, err := m.AllocateWithObject(0, obj.Size(), true, obj, 0, prot, vmtypes.ProtAll, vmtypes.InheritCopy, false)
	w.tr.end()
	return va, err
}

func (w *world) deallocate(m *core.Map, va vmtypes.VA, size uint64, cpu int) error {
	w.tr.begin(nMapDeallocate, cpu)
	err := m.Deallocate(va, size)
	w.tr.end()
	return err
}

func (w *world) protect(m *core.Map, va vmtypes.VA, size uint64, prot vmtypes.Prot, cpu int) error {
	w.tr.begin(nMapProtect, cpu)
	err := m.Protect(va, size, false, prot)
	w.tr.end()
	return err
}

func (w *world) scan() {
	w.tr.begin(nPageoutScan, 0)
	w.k.PageoutScan()
	w.tr.end()
}

// access is Thread.Read / Thread.Write. In the traced pass the span is
// named after the fault counter the access bumped: pager page-in over
// copy-on-write over zero fill over resident hit. A fault that bumped none
// of them was a read satisfied by a page resident further down the shadow
// chain, also a resident hit; an access that took no fault at all (TLB hit
// or hardware table walk) is hw.access.
func (w *world) access(th *task.Thread, va vmtypes.VA, buf []byte, write bool) error {
	if w.tr == nil {
		if write {
			return th.Write(va, buf)
		}
		return th.Read(va, buf)
	}
	st := w.k.Stats()
	w.tr.begin(nAccess, th.CPU().ID)
	faults, pageins, cows, zeros := st.Faults.Load(), st.Pageins.Load(), st.CowFaults.Load(), st.ZeroFillFaults.Load()
	var err error
	if write {
		err = th.Write(va, buf)
	} else {
		err = th.Read(va, buf)
	}
	name := nAccess
	switch {
	case st.Pageins.Load() != pageins:
		name = nFaultPagein
	case st.CowFaults.Load() != cows:
		name = nFaultCow
	case st.ZeroFillFaults.Load() != zeros:
		name = nFaultZeroFill
	case st.Faults.Load() != faults:
		name = nFaultResident
	}
	w.tr.endAs(name)
	return err
}

// Indices of the counters kept beside the kernel's own snapshot.
const (
	cEnters = iota // pmap module counters
	cRemoves
	cProtects
	cZeroPages
	cCopyPages
	cRangeEnters
	cRemoveAlls
	cCopyOnWrites
	cTLBHits
	cTLBMisses
	cIPIs
	cDiskReads
	cDiskWrites
	numExt
)

// counters is every layer counter the per-layer metrics are computed from,
// captured at one point.
type counters struct {
	core core.StatsSnapshot
	ext  [numExt]uint64
}

func (w *world) counters() counters {
	c := counters{core: w.k.Stats().Snapshot()}
	c.ext = moduleCounters(w.mod)
	c.ext[cIPIs] = w.machine.IPIsSent()
	for _, cpu := range w.machine.CPUs() {
		ts := cpu.TLB.Stats()
		c.ext[cTLBHits] += ts.Hits
		c.ext[cTLBMisses] += ts.Misses
	}
	if w.disk != nil {
		c.ext[cDiskReads], c.ext[cDiskWrites] = w.disk.Traffic()
	}
	return c
}

func moduleCounters(mod pmap.Module) (ext [numExt]uint64) {
	ms := mod.Stats()
	ext[cEnters] = ms.Enters.Load()
	ext[cRemoves] = ms.Removes.Load()
	ext[cProtects] = ms.Protects.Load()
	ext[cZeroPages] = ms.ZeroPages.Load()
	ext[cCopyPages] = ms.CopyPages.Load()
	ext[cRangeEnters] = ms.RangeEnters.Load()
	ext[cRemoveAlls] = ms.RemoveAlls.Load()
	ext[cCopyOnWrites] = ms.CopyOnWrites.Load()
	return ext
}

// combine returns a op b, counter by counter.
func combine(a, b counters, op func(x, y uint64) uint64) counters {
	av, bv := reflect.ValueOf(&a.core).Elem(), reflect.ValueOf(b.core)
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetUint(op(av.Field(i).Uint(), bv.Field(i).Uint()))
	}
	for i := range a.ext {
		a.ext[i] = op(a.ext[i], b.ext[i])
	}
	return a
}

func (a counters) sub(b counters) counters {
	return combine(a, b, func(x, y uint64) uint64 { return x - y })
}

func (a counters) add(b counters) counters {
	return combine(a, b, func(x, y uint64) uint64 { return x + y })
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// putTag and getTag move the 8-byte words the content models are made of.
func putTag(buf []byte, v uint64) { binary.LittleEndian.PutUint64(buf, v) }
func getTag(buf []byte) uint64    { return binary.LittleEndian.Uint64(buf) }

// invariantFailures runs the kernel's structural checker and reports what
// it found, prefixed for the failure list.
func invariantFailures(k *core.Kernel) []string {
	var out []string
	for _, v := range k.CheckInvariants() {
		out = append(out, fmt.Sprintf("invariant: %s", v))
	}
	return out
}
