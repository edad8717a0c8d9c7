package main

// paper_tables: the paper's own evaluation, Tables 7-1 and 7-2, Mach and
// baseline side, built through workload.Scenario exactly as cmd/benchtables
// builds them.
//
// Why it is here: it is the accuracy anchor and the only workload that runs
// all the pmap modules the tables use, internal/baseline, the object cache
// against the buffer cache, and the scenario builders. A change meant only
// to speed the simulator up must leave its virtual numbers identical.

import (
	"context"
	"fmt"
	"math"
	"time"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/unixfs"
	"machvm/internal/workload"
)

// paperRow is one row of Table 7-1 or 7-2: virtual ns on each side, and the
// UNIX:Mach ratio the paper printed.
type paperRow struct {
	label      string
	paperRatio float64
	mach, unix int64
}

func (r paperRow) ratio() float64 { return float64(r.unix) / float64(r.mach) }

// Row indices; the order is the tables'.
const (
	rowZeroRT = iota
	rowZeroUVAX
	rowZeroSun
	rowForkRT
	rowForkUVAX
	rowForkSun
	rowReadBig1
	rowReadBig2
	rowReadSmall1
	rowReadSmall2
	rowProgs400
	rowProgsGeneric
	rowKernel400
	rowKernelGeneric
	rowForkTest
	numPaperRows
)

func newPaperRows() [numPaperRows]paperRow {
	return [numPaperRows]paperRow{
		rowZeroRT:        {label: "zero fill 1K (RT PC)", paperRatio: .58 / .45},
		rowZeroUVAX:      {label: "zero fill 1K (uVAX II)", paperRatio: 1.2 / .58},
		rowZeroSun:       {label: "zero fill 1K (SUN 3/160)", paperRatio: .27 / .23},
		rowForkRT:        {label: "fork 256K (RT PC)", paperRatio: 145.0 / 41},
		rowForkUVAX:      {label: "fork 256K (uVAX II)", paperRatio: 220.0 / 59},
		rowForkSun:       {label: "fork 256K (SUN 3/160)", paperRatio: 89.0 / 68},
		rowReadBig1:      {label: "read 2.5M file, first time", paperRatio: 5.0 / 5.0},
		rowReadBig2:      {label: "read 2.5M file, second time", paperRatio: 5.0 / 1.4},
		rowReadSmall1:    {label: "read 50K file, first time", paperRatio: .5 / .5},
		rowReadSmall2:    {label: "read 50K file, second time", paperRatio: .2 / .1},
		rowProgs400:      {label: "13 programs, 400 buffers", paperRatio: 28.0 / 23},
		rowProgsGeneric:  {label: "13 programs, generic config", paperRatio: 76.0 / 19},
		rowKernel400:     {label: "Mach kernel, 400 buffers", paperRatio: 1418.0 / 1198},
		rowKernelGeneric: {label: "Mach kernel, generic config", paperRatio: 2050.0 / 950},
		rowForkTest:      {label: "compile fork test (SUN 3/160)", paperRatio: 6.0 / 3},
	}
}

// verdicts are EXPERIMENTS.md's shape verdicts — who wins, by roughly what
// factor — as checks over one pass's rows. A pass fails when one does not
// hold. kernelRows is false when the kernel-build rows were not run.
func verdicts(r *[numPaperRows]paperRow, kernelRows bool) []string {
	var v []string
	holds := func(ok bool, format string, args ...any) {
		if !ok {
			v = append(v, "shape verdict violated: "+fmt.Sprintf(format, args...))
		}
	}
	holds(r[rowForkRT].ratio() >= 3 && r[rowForkUVAX].ratio() >= 3,
		"COW fork beats the eager copiers at least 3x (RT PC %.2fx, uVAX II %.2fx)", r[rowForkRT].ratio(), r[rowForkUVAX].ratio())
	holds(r[rowForkSun].ratio() > 1.1 && r[rowForkSun].ratio() < 2,
		"COW fork beats SunOS, which also copies lazily, by a small margin only (%.2fx)", r[rowForkSun].ratio())
	holds(r[rowZeroRT].ratio() > 1 && r[rowZeroUVAX].ratio() > 1 && r[rowZeroSun].ratio() > 1,
		"Mach wins zero fill on every machine (%.2fx %.2fx %.2fx)", r[rowZeroRT].ratio(), r[rowZeroUVAX].ratio(), r[rowZeroSun].ratio())
	holds(r[rowZeroUVAX].ratio() > r[rowZeroRT].ratio() && r[rowZeroRT].ratio() > r[rowZeroSun].ratio(),
		"zero fill wins most on the uVAX II and least on the SUN 3")
	holds(math.Abs(r[rowReadBig1].ratio()-1) <= 0.1,
		"first read of the 2.5M file is disk-bound and equal on both systems (%.2fx)", r[rowReadBig1].ratio())
	holds(r[rowReadBig2].ratio() >= 3,
		"second read of the 2.5M file comes from the object cache, at least 3x faster (%.2fx)", r[rowReadBig2].ratio())
	holds(r[rowReadSmall2].mach*5 <= r[rowReadSmall1].mach && r[rowReadSmall2].unix*5 <= r[rowReadSmall1].unix,
		"the 50K file fits both caches: both systems reread it at least 5x faster")
	holds(r[rowProgs400].ratio() >= 1.1,
		"Mach wins the 13-program build with 400 buffers (%.2fx)", r[rowProgs400].ratio())
	holds(math.Abs(float64(r[rowProgsGeneric].mach)/float64(r[rowProgs400].mach)-1) <= 0.02,
		"Mach's build time does not depend on the buffer configuration")
	holds(float64(r[rowProgsGeneric].unix) >= 1.5*float64(r[rowProgs400].unix),
		"the baseline collapses under the generic (small-buffer) configuration")
	if kernelRows {
		holds(r[rowKernel400].ratio() > 1 && r[rowKernelGeneric].ratio() > r[rowKernel400].ratio(),
			"Mach wins the kernel build, by more under the generic configuration (%.2fx, %.2fx)", r[rowKernel400].ratio(), r[rowKernelGeneric].ratio())
	}
	holds(r[rowForkTest].ratio() >= 0.98,
		"Mach compiles the fork test program no slower than SunOS (%.2fx)", r[rowForkTest].ratio())
	return v
}

type paperTables struct {
	failures
	tr         *tracer
	rng        lcg
	kernelRows bool

	rows    [numPaperRows]paperRow
	virt    int64    // virtual ns of every world run so far
	acc     counters // layer counters of every world run so far
	live    int64    // most live objects any Mach world ended with
	p50     int64    // fault latency of the 13-programs Mach world
	p99     int64
	samples uint64
}

func buildPaperTables(seed uint64, tr *tracer) (stream, error) {
	return newPaperTables(seed, tr, true)
}

// newPaperTables' setup is one untimed pass without the kernel-build rows:
// every pass boots its own worlds, so there is nothing to populate, but the
// first pass pays for growing the Go heap to the worlds' size. kernelRows
// says whether the timed passes include the (slow) kernel-build rows.
func newPaperTables(seed uint64, tr *tracer, kernelRows bool) (stream, error) {
	pt := &paperTables{tr: tr, rng: newLCG(seed, 0x7A81), rows: newPaperRows()}
	if _, err := warm(pt, 1); err != nil {
		return nil, err
	}
	pt.kernelRows = kernelRows
	return pt, nil
}

// runWorld builds and runs one side of a scenario, accounts its clocks and
// counters, and returns its report.
func (pt *paperTables) runWorld(sc workload.Scenario, arch workload.Arch) (workload.Report, error) {
	h0 := time.Now()
	w, err := sc.Build(arch)
	if err != nil {
		return workload.Report{}, err
	}
	rep, err := w.Run(context.Background())
	if err != nil {
		return rep, err
	}
	name := nWorkloadScenario
	var machine *hw.Machine
	var mod pmap.Module
	var disk *unixfs.Disk
	switch run := w.(type) {
	case *workload.MachRun:
		machine, mod, disk = run.World.Machine, run.World.Mod, run.World.FS.Disk
		run.World.Close()
		if rep.SLO != nil && rep.SLO.InvariantViolations > 0 {
			return rep, fmt.Errorf("%d invariant violations", rep.SLO.InvariantViolations)
		}
		if live := int64(rep.Stats.ObjectsCreated) - int64(rep.Stats.ObjectsTerminated); live > pt.live {
			pt.live = live
		}
	case *workload.UnixRun:
		name = nBaselineScenario
		machine, mod, disk = run.World.Machine, run.World.Mod, run.World.FS.Disk
	default:
		return rep, fmt.Errorf("unexpected world type %T", w)
	}
	machine.FlushAllCharges()
	virt := machine.Clock.Now()
	pt.virt += virt
	c := counters{core: rep.Stats, ext: moduleCounters(mod)}
	c.ext[cIPIs] = machine.IPIsSent()
	for _, cpu := range machine.CPUs() {
		ts := cpu.TLB.Stats()
		c.ext[cTLBHits] += ts.Hits
		c.ext[cTLBMisses] += ts.Misses
	}
	c.ext[cDiskReads], c.ext[cDiskWrites] = disk.Traffic()
	pt.acc = pt.acc.add(c)
	if pt.tr != nil {
		pt.tr.addSpan(name, trackScenario, int64(h0.Sub(pt.tr.base)), pt.tr.host(), virt)
	}
	return rep, nil
}

// both runs a two-sided scenario on arch and returns the Mach and baseline
// reports.
func (pt *paperTables) both(arch workload.Arch, mk func(opts ...workload.Option) workload.Scenario, opts ...workload.Option) (mach, unix workload.Report, err error) {
	if mach, err = pt.runWorld(mk(opts...), arch); err != nil {
		return
	}
	unix, err = pt.runWorld(mk(append(opts[:len(opts):len(opts)], workload.WithBaseline())...), arch)
	return
}

// pass regenerates both tables once. The seed picks the repetition counts
// of the micro-operations (the tables report per-operation averages, so the
// rows barely move; the work done does).
func (pt *paperTables) pass() error {
	zeroReps, forkReps := 16+pt.rng.n(16), 6+pt.rng.n(5)
	mem8 := workload.WithMemoryMB(8)
	for i, arch := range []workload.Arch{workload.ArchRTPC, workload.ArchUVAX2, workload.ArchSun3} {
		m, u, err := pt.both(arch, func(opts ...workload.Option) workload.Scenario {
			return workload.ZeroFill(1024, zeroReps, opts...)
		}, mem8)
		if err != nil {
			return err
		}
		pt.rows[rowZeroRT+i].mach, pt.rows[rowZeroRT+i].unix = m.Aux["ns_per_op"], u.Aux["ns_per_op"]
		if m, u, err = pt.both(arch, func(opts ...workload.Option) workload.Scenario {
			return workload.Fork(256<<10, forkReps, opts...)
		}, mem8); err != nil {
			return err
		}
		pt.rows[rowForkRT+i].mach, pt.rows[rowForkRT+i].unix = m.Aux["ns_per_op"], u.Aux["ns_per_op"]
	}

	// File reads: both sizes in one world per side, so the second pass of
	// the big file meets the cache the first one warmed.
	readOpts := []workload.Option{workload.WithMemoryMB(16), workload.WithDiskMB(128), workload.WithNBufs(400)}
	var mbig, msmall, ubig, usmall workload.FileReadResult
	if _, err := pt.runWorld(workload.Mach(func(_ context.Context, w *workload.MachWorld) (workload.Report, error) {
		var err error
		if mbig, err = workload.MachFileRead(w, 2500<<10); err != nil {
			return workload.Report{}, err
		}
		msmall, err = workload.MachFileRead(w, 50<<10)
		return workload.Report{Ops: 4}, err
	}, readOpts...), workload.ArchVAX8200); err != nil {
		return err
	}
	if _, err := pt.runWorld(workload.Unix(func(_ context.Context, u *workload.UnixWorld) (workload.Report, error) {
		var err error
		if ubig, err = workload.UnixFileRead(u, 2500<<10); err != nil {
			return workload.Report{}, err
		}
		usmall, err = workload.UnixFileRead(u, 50<<10)
		return workload.Report{Ops: 4}, err
	}, readOpts...), workload.ArchVAX8200); err != nil {
		return err
	}
	pt.rows[rowReadBig1].mach, pt.rows[rowReadBig1].unix = mbig.First, ubig.First
	pt.rows[rowReadBig2].mach, pt.rows[rowReadBig2].unix = mbig.Second, ubig.Second
	pt.rows[rowReadSmall1].mach, pt.rows[rowReadSmall1].unix = msmall.First, usmall.First
	pt.rows[rowReadSmall2].mach, pt.rows[rowReadSmall2].unix = msmall.Second, usmall.Second

	compile := func(row int, arch workload.Arch, cfg workload.CompileConfig, nbufs int) error {
		m, u, err := pt.both(arch, func(opts ...workload.Option) workload.Scenario {
			return workload.Compile(cfg, opts...)
		}, workload.WithMemoryMB(16), workload.WithDiskMB(256), workload.WithNBufs(nbufs))
		if err != nil {
			return err
		}
		pt.rows[row].mach, pt.rows[row].unix = m.VirtualNS, u.VirtualNS
		if row == rowProgs400 && m.SLO != nil {
			pt.p50, pt.p99, pt.samples = m.SLO.FaultP50NS, m.SLO.FaultP99NS, m.SLO.Faults
		}
		return nil
	}
	if err := compile(rowProgs400, workload.ArchVAX8650, workload.ThirteenPrograms(), 400); err != nil {
		return err
	}
	if err := compile(rowProgsGeneric, workload.ArchVAX8650, workload.ThirteenPrograms(), 64); err != nil {
		return err
	}
	if pt.kernelRows {
		if err := compile(rowKernel400, workload.ArchVAX8650, workload.KernelBuild(), 400); err != nil {
			return err
		}
		if err := compile(rowKernelGeneric, workload.ArchVAX8650, workload.KernelBuild(), 64); err != nil {
			return err
		}
	}
	return compile(rowForkTest, workload.ArchSun3, workload.ForkTestProgram(), 400)
}

// step is one pass over both tables; it fails if a world fails or a shape
// verdict does not hold.
func (pt *paperTables) step() (ops, failed int) {
	if err := pt.pass(); err != nil {
		pt.add("pass: %v", err)
		return 1, 1
	}
	if v := verdicts(&pt.rows, pt.kernelRows); len(v) > 0 {
		for _, s := range v {
			pt.add("%s", s)
		}
		return 1, 1
	}
	return 1, 0
}

func (pt *paperTables) virtNow() int64     { return pt.virt }
func (pt *paperTables) counters() counters { return pt.acc }
func (pt *paperTables) liveObjects() int64 { return pt.live }
func (pt *paperTables) finish() []string   { return nil }
func (pt *paperTables) close()             {}

func (pt *paperTables) faultLatency() (p50, p99 int64, samples uint64) {
	return pt.p50, pt.p99, pt.samples
}

func (pt *paperTables) pagerErrors() map[string]uint64 { return nil }

// extras: the mean distance of the measured UNIX:Mach ratios from the
// paper's, over the rows of the last pass. The model is otherwise
// unvalidated: no hardware reference exists.
func (pt *paperTables) extras() map[string]float64 {
	sum, n := 0.0, 0
	for i, r := range pt.rows {
		if !pt.kernelRows && (i == rowKernel400 || i == rowKernelGeneric) {
			continue
		}
		if r.mach > 0 {
			sum += math.Abs(r.ratio()/r.paperRatio - 1)
			n++
		}
	}
	if n == 0 {
		return nil
	}
	return map[string]float64{"paper_ratio_err_pct": 100 * sum / float64(n)}
}
