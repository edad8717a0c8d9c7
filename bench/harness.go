package main

// The measurement harness shared by the five workloads: a fixed number of
// steps of a deterministic op stream, cut into equal slices, timed on the
// host clock and on the virtual clock.

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// stream is one workload's op stream over a world it owns.
type stream interface {
	// step runs the next unit of the stream (a ring rotation, a fork
	// cycle, a batch of touches, a request, a pass over the paper's
	// tables) and returns how many operations it attempted and how many
	// of them failed. An operation fails on any error or on a byte that
	// differs from the expected-content model.
	step() (ops, failed int)
	// virtNow is the virtual clock with every CPU's charges flushed.
	virtNow() int64
	counters() counters
	// faultLatency is the kernel's per-fault virtual latency record.
	faultLatency() (p50, p99 int64, samples uint64)
	// liveObjects is memory objects created minus terminated.
	liveObjects() int64
	// finish runs the end-of-run checks (structural invariants) and
	// returns one line per failure.
	finish() []string
	// failureNotes describes the first few failed operations.
	failureNotes() []string
	// extras returns the workload's own end-to-end metrics, if any.
	extras() map[string]float64
	// pagerErrors reports per-layer pager errors seen by the decorators.
	pagerErrors() map[string]uint64
	close()
}

// spec describes a workload to the harness.
type spec struct {
	name string
	why  string
	// stepsAt20s is the step count that takes about 20 s of host time on
	// the 2-core box the benchmark was sized on; -seconds scales it.
	stepsAt20s int
	// build boots the workload's world, populates it and runs its warm-up
	// steps; how long that takes is the setup_s metric.
	build func(seed uint64, tr *tracer) (stream, error)
	// decorated is false for the one workload whose worlds are built by
	// internal/workload and so cannot be handed decorated layers.
	decorated bool
	// virtTolerance is how far the traced pass may differ from the plain
	// one in virtual time: 0 everywhere but on paging_tiered, whose
	// compressed tier evicts from a goroutine of its own — what it has
	// evicted when a fault arrives depends on how fast the driver runs,
	// and the traced driver runs slower.
	virtTolerance float64
	// guard, if set, checks that the workload still is what its
	// description says (see README, workload-shape guards); it returns one
	// line per violation.
	guard func(p *pass) []string
}

const slicesPerRun = 25

// steps returns the timed step count for a run of the given length: the
// 20 s size scaled down, rounded to a whole number of steps per slice.
func (s *spec) steps(seconds int) int {
	n := s.stepsAt20s * seconds / 20
	if n < slicesPerRun {
		if n < 1 {
			n = 1
		}
		return n // fewer steps than slices: one step per slice
	}
	return n / slicesPerRun * slicesPerRun
}

// setup times build.
func (s *spec) setup(seed uint64, tr *tracer) (stream, time.Duration, error) {
	start := time.Now()
	w, err := s.build(seed, tr)
	return w, time.Since(start), err
}

// warm runs n untimed steps of a freshly built workload, so that the timed
// run starts in steady state (TLB, magazines, object cache, tier pool).
func warm(w stream, n int) (stream, error) {
	for i := 0; i < n; i++ {
		if _, failed := w.step(); failed > 0 {
			notes := w.failureNotes()
			w.close()
			return nil, fmt.Errorf("warm-up: operation failed: %v", notes)
		}
	}
	return w, nil
}

// pass is the record of one timed pass over a workload.
type pass struct {
	steps, ops, failed int
	notes              []string  // first few failure descriptions
	sliceNsPerOp       []float64 // host ns per op, one per slice
	wallNS, virtNS     int64
	cpuNS              int64 // user+system CPU time of the process
	mallocs, bytes     uint64
	gcCycles           uint32
	delta              counters // layer counters over the pass
	livePeak           int64
	p50, p99           int64 // virtual ns per fault
	faultSamples       uint64
	extras             map[string]float64
	pagerErrs          map[string]uint64
}

func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// maxRSSMB is the process's peak resident set (Linux reports kilobytes).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// run drives w for steps steps and measures them. tr, when set, is told
// which step each span belongs to.
func run(w stream, steps int, tr *tracer) *pass {
	slices := slicesPerRun
	if steps < slices {
		slices = steps
	}
	per := steps / slices
	p := &pass{steps: per * slices, sliceNsPerOp: make([]float64, 0, slices)}

	// A collection now, so that one triggered by setup's garbage does not
	// land in the first slice.
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := w.counters()
	cpu0 := cpuTime()
	v0 := w.virtNow()
	t0 := time.Now()
	for s := 0; s < slices; s++ {
		ts := time.Now()
		sliceOps := 0
		for i := 0; i < per; i++ {
			tr.nextOp()
			ops, failed := w.step()
			sliceOps += ops
			p.failed += failed
			if live := w.liveObjects(); live > p.livePeak {
				p.livePeak = live
			}
		}
		p.ops += sliceOps
		if sliceOps > 0 {
			p.sliceNsPerOp = append(p.sliceNsPerOp, float64(time.Since(ts))/float64(sliceOps))
		}
	}
	p.wallNS = int64(time.Since(t0))
	p.virtNS = w.virtNow() - v0
	p.cpuNS = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	p.gcCycles = m1.NumGC - m0.NumGC
	p.delta = w.counters().sub(c0)
	p.p50, p.p99, p.faultSamples = w.faultLatency()
	p.extras = w.extras()
	p.pagerErrs = w.pagerErrors()
	p.notes = append(p.notes, w.failureNotes()...)
	for _, note := range w.finish() {
		p.failed++
		p.ops++
		p.notes = append(p.notes, note)
	}
	return p
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// kernelWorkload supplies the harness-facing half of the workload interface
// for the four workloads that run on one benchmark-built world.
type kernelWorkload struct {
	w *world
	failures
}

func (kw *kernelWorkload) virtNow() int64     { return kw.w.virtNow() }
func (kw *kernelWorkload) counters() counters { return kw.w.counters() }

func (kw *kernelWorkload) faultLatency() (p50, p99 int64, samples uint64) {
	slo := kw.w.k.SLOReport()
	return slo.FaultP50NS, slo.FaultP99NS, slo.Faults
}

func (kw *kernelWorkload) liveObjects() int64 {
	st := kw.w.k.Stats()
	return int64(st.ObjectsCreated.Load()) - int64(st.ObjectsTerminated.Load())
}

func (kw *kernelWorkload) finish() []string           { return invariantFailures(kw.w.k) }
func (kw *kernelWorkload) extras() map[string]float64 { return nil }

func (kw *kernelWorkload) pagerErrors() map[string]uint64 {
	out := make(map[string]uint64, len(kw.w.pagerErrs))
	for layer, load := range kw.w.pagerErrs {
		out[layer] = load()
	}
	return out
}

// failures collects the first few failure descriptions of a step stream.
type failures struct {
	notes []string
}

func (f *failures) add(format string, args ...any) {
	if len(f.notes) < 8 {
		f.notes = append(f.notes, fmt.Sprintf(format, args...))
	}
}

func (f *failures) failureNotes() []string { return f.notes }
