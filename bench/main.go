// bench is the repository's one benchmark: five named workloads, each
// measured on two clocks (host wall time and the simulated machine's virtual
// clock), with a second, traced pass that splits the cost by layer from the
// outside. See README.md in this directory.
//
// Usage:
//
//	go run ./bench -workload anon_fault -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload anon_fault -seed 1 -seconds 10 -trace 1
//	go run ./bench -runs 10 -out A.json          # every workload, in child processes
//	go run ./bench -compare A.json B.json
//	go run ./bench -manifest > BENCHMARK.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads is the fixed list; names are part of BENCHMARK.json.
var workloads = []*spec{
	{
		name:       "anon_fault",
		why:        "TLB-only machine, ring of 32 live regions: resident-hit and zero-fill faults, map lookup beside two map mutations per step; no pager, pageout or shadowing",
		stepsAt20s: 21000,
		build:      buildAnonFault,
		guard:      noPaging,
		decorated:  true,
	},
	{
		name:       "fork_cow",
		why:        "4-CPU VAX, fork/COW/protect/exit cycles with shared pages and grandchildren: task and map bulk mutation, shadow chains, pmap protect/copy and IPIs; no resident-hit or pager work",
		stepsAt20s: 128000,
		build:      buildForkCow,
		guard:      guardForkCow,
		decorated:  true,
	},
	{
		name:          "paging_tiered",
		why:           "2 MB VAX, object of 1.5x RAM behind ztier -> netpager -> pipe -> latency-charging backend: pageout, pager flights and every pager layer, with background goroutines; no fork, little map work",
		stepsAt20s:    28000,
		build:         buildPagingTiered,
		guard:         guardPagingTiered,
		decorated:     true,
		virtTolerance: 0.03,
	},
	{
		name:       "server_open",
		why:        "8 tenants on a 4-CPU VAX at 1.5x memory: fork, COW, image page-ins (inode pager), swap, 48 touches per request; open-loop replay at 23/61/72 req/vs, SLO p99 <= 650 vms",
		stepsAt20s: 42000,
		build:      buildServerOpen,
		guard:      guardServerOpen,
		decorated:  true,
	},
	{
		name:       "paper_tables",
		why:        "Tables 7-1 and 7-2 with the kernel-build rows, Mach and baseline side, via workload.Scenario: the accuracy anchor, all table pmap modules, object cache vs buffer cache; op = one pass",
		stepsAt20s: 13,
		build:      buildPaperTables,
	},
}

func findWorkload(name string) *spec {
	for _, s := range workloads {
		if s.name == name {
			return s
		}
	}
	return nil
}

// setupRuns is how many times a run sets its world up; setup_s is the
// median, and the last world is the one measured.
const setupRuns = 5

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload to run in this process (default: all, each in a child process)")
		seed         = flag.Uint64("seed", 1, "seed of the workload's op stream")
		seconds      = flag.Int("seconds", 10, "length of the timed run in seconds of host time on the reference box")
		trace        = flag.Int("trace", 0, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		runs         = flag.Int("runs", 1, "all-workloads mode: runs per workload, seeds seed..seed+runs-1")
		out          = flag.String("out", "", "all-workloads mode: write every run's result to this file (input of -compare)")
		compare      = flag.Bool("compare", false, "compare two -out files: bench -compare A.json B.json")
		manifest     = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	var err error
	switch {
	case *manifest:
		err = writeManifest(os.Stdout, *seconds)
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: bench -compare A.json B.json")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workloadFlag == "":
		err = runAll(*seed, *seconds, *runs, *out)
	default:
		s := findWorkload(*workloadFlag)
		if s == nil {
			err = fmt.Errorf("unknown workload %q", *workloadFlag)
			break
		}
		if *seconds < 1 {
			err = errors.New("-seconds must be at least 1")
			break
		}
		// Load comes from one driver goroutine plus, on paging_tiered, the
		// pager stack's own goroutines: never more than the host's CPUs.
		runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
		if *trace == 0 {
			err = runUntraced(s, *seed, s.steps(*seconds))
		} else {
			err = runTraced(s, *seed, s.steps(*seconds)/5)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// checkShape applies the workload's guard and the stationarity bound.
func checkShape(s *spec, p *pass) error {
	var violations []string
	if s.guard != nil {
		violations = s.guard(p)
	}
	if p.livePeak > livePeakBound {
		violations = append(violations, fmt.Sprintf("live memory objects peaked at %d (bound %d): the run is not stationary", p.livePeak, livePeakBound))
	}
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "bench: %s: %s\n", s.name, v)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%s: workload-shape guard failed; nothing reported", s.name)
	}
	return nil
}

// fidelity checks that decorating every layer boundary changed nothing the
// simulated machine can see: the traced pass must reproduce the plain
// pass's virtual time, fault latencies and kernel counters bit for bit, or —
// on the one workload with asynchronous pager goroutines — within its
// stated tolerance.
func fidelity(s *spec, plain, traced *pass) []string {
	var v []string
	if s.virtTolerance == 0 {
		if plain.virtNS != traced.virtNS {
			v = append(v, fmt.Sprintf("virtual time %d ns traced, %d ns plain", traced.virtNS, plain.virtNS))
		}
		if plain.p50 != traced.p50 || plain.p99 != traced.p99 {
			v = append(v, fmt.Sprintf("fault p50/p99 %d/%d traced, %d/%d plain", traced.p50, traced.p99, plain.p50, plain.p99))
		}
		if plain.delta != traced.delta {
			v = append(v, fmt.Sprintf("layer counters differ:\n  traced %+v\n  plain  %+v", traced.delta, plain.delta))
		}
		return v
	}
	if d := float64(traced.virtNS)/float64(plain.virtNS) - 1; d > s.virtTolerance || d < -s.virtTolerance {
		v = append(v, fmt.Sprintf("virtual time differs by %.2f%% (tolerance %.0f%%)", 100*d, 100*s.virtTolerance))
	}
	if plain.ops != traced.ops {
		v = append(v, fmt.Sprintf("%d ops traced, %d plain", traced.ops, plain.ops))
	}
	return v
}

// livePeakBound is the stationarity guard: no workload may hold more live
// memory objects than this at any step boundary. Parents and tenants are
// recycled every 64 forks so that the uncollapsed shadow chains of a
// long-lived forking parent (README, known findings) stay below it.
const livePeakBound = 2048

func printFailures(p *pass) {
	for _, n := range p.notes {
		fmt.Fprintf(os.Stderr, "bench: failed operation: %s\n", n)
	}
}

// measureUntraced sets the workload up setups times (setup_s is the median;
// the last world is the one measured) and runs one timed pass.
func measureUntraced(s *spec, seed uint64, steps, setups int) (*pass, float64, error) {
	var w stream
	times := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if w != nil {
			w.close()
			w = nil
			runtime.GC()
		}
		var d time.Duration
		var err error
		if w, d, err = s.setup(seed, nil); err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
	}
	defer w.close()
	p := run(w, steps, nil)
	return p, median(times), checkShape(s, p)
}

// runUntraced is the -trace 0 run: end-to-end metrics.
func runUntraced(s *spec, seed uint64, steps int) error {
	p, setupS, err := measureUntraced(s, seed, steps, setupRuns)
	if p != nil {
		printFailures(p)
	}
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d: %d steps, %d ops, %d failed, %d fault samples, open-loop generator lateness 0 (arrivals are replayed on the virtual clock)\n",
		s.name, seed, p.steps, p.ops, p.failed, p.faultSamples)
	return emit(os.Stdout, endToEnd, endToEndValues(p, setupS), p.ops, p.failed)
}

// measureTraced runs the same steps twice — plain, then with every layer
// boundary decorated — and returns both passes, the recorder and the
// fidelity violations. The two passes must agree on every virtual number.
func measureTraced(s *spec, seed uint64, steps int) (plain, traced *pass, tr *tracer, violations []string, err error) {
	w, _, err := s.setup(seed, nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	plain = run(w, steps, nil)
	w.close()
	runtime.GC()

	tr = newTracer()
	if w, _, err = s.setup(seed, tr); err != nil {
		return nil, nil, nil, nil, err
	}
	defer w.close()
	tr.reset()
	traced = run(w, steps, tr)
	tr.freeze()
	return plain, traced, tr, fidelity(s, plain, traced), checkShape(s, traced)
}

// runTraced is the -trace 1 run: the first fifth of the op stream, per-layer
// metrics, and the spans as a Chrome trace file.
func runTraced(s *spec, seed uint64, steps int) error {
	plain, traced, tr, violations, err := measureTraced(s, seed, max(steps, 1))
	if traced != nil {
		printFailures(traced)
	}
	if err != nil {
		return err
	}
	for _, f := range violations {
		fmt.Fprintf(os.Stderr, "bench: %s: decorator fidelity: %s\n", s.name, f)
	}
	path := filepath.Join("bench", "out", fmt.Sprintf("%s-seed%d.trace.json", s.name, seed))
	if err := tr.writeChrome(path); err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d traced: %d steps, %d ops, %d spans (%d kept in %s)\n",
		s.name, seed, traced.steps, traced.ops, tr.total, len(tr.spans), path)
	printShares(os.Stdout, tr, traced)
	failed := traced.failed + len(violations)
	return emit(os.Stdout, perLayer(), perLayerValues(traced, plain, tr, s.decorated), traced.ops+len(violations), failed)
}
