package main

// The all-workloads driver (each workload in a child process, so peak RSS
// and collector state are per workload) and -compare, the run-to-run
// agreement check later performance claims are made with.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runRecord is one child run in an -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

type runSet struct {
	Runs []runRecord `json:"runs"`
}

// runAll runs every workload, untraced then traced, runs times over, each
// in a child process of this binary. Workloads are interleaved so that host
// drift spreads over all of them.
func runAll(seed uint64, seconds, runs int, outPath string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var set runSet
	for r := 0; r < runs; r++ {
		for _, s := range workloads {
			for trace := 0; trace <= 1; trace++ {
				rec := runRecord{Workload: s.name, Seed: seed + uint64(r), Trace: trace}
				cmd := exec.Command(exe,
					"-workload", s.name,
					"-seed", strconv.FormatUint(rec.Seed, 10),
					"-seconds", strconv.Itoa(seconds),
					"-trace", strconv.Itoa(trace))
				cmd.Stderr = os.Stderr
				stdout, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s seed %d trace %d: %w", s.name, rec.Seed, trace, err)
				}
				lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
				if err := json.Unmarshal(lines[len(lines)-1], &rec.Result); err != nil {
					return fmt.Errorf("%s: last line is not a result: %w", s.name, err)
				}
				if runs == 1 {
					os.Stdout.Write(stdout)
				} else {
					fmt.Printf("run %d/%d %s trace %d: correct=%v attempted=%d failed=%d\n",
						r+1, runs, s.name, trace, rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
				}
				set.Runs = append(set.Runs, rec)
			}
		}
	}
	if outPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(data, '\n'), 0o644)
}

func loadRunSet(path string) (runSet, error) {
	var set runSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// values returns one end-to-end metric's value in every untraced run of a
// workload.
func (set runSet) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range set.Runs {
		if r.Workload == workload && r.Trace == 0 {
			if m, ok := r.Result.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if m := median(v); m != 0 {
		return math.Abs((q3 - q1) / m)
	}
	return 0
}

// separated reports whether every value of a is strictly better than every
// value of b.
func separated(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if better == lower && x >= y || better == higher && x <= y {
				return false
			}
		}
	}
	return true
}

// verdict compares metric d between the runs of A (the reference) and B.
// worse is B's median relative to A's, positive when B is worse.
func verdict(d metricDef, a, b []float64) (worse float64, word string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
	}
	if d.Better == higher {
		worse = -worse
	}
	if math.Max(spread(a), spread(b)) > d.Bound {
		// The runs of one side disagree by more than the bound: a median
		// difference means nothing unless the two sides do not overlap.
		switch {
		case separated(a, b, d.Better):
			word = "REGRESSION"
		case separated(b, a, d.Better):
			word = "improved"
		default:
			word = "unresolved"
		}
		return worse, word
	}
	switch {
	case worse > d.Bound:
		word = "REGRESSION"
	case worse < -d.Bound:
		word = "improved"
	default:
		word = "unchanged"
	}
	return worse, word
}

var errRegression = errors.New("regression")

// compareFiles prints, per workload and end-to-end metric, both medians,
// the change and the bound, and fails on a regression.
func compareFiles(out io.Writer, pathA, pathB string) error {
	a, err := loadRunSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		return err
	}
	regressions, unresolved := 0, 0
	for _, s := range workloads {
		fmt.Fprintf(out, "%s\n", s.name)
		fmt.Fprintf(out, "  %-22s %16s %16s %9s %8s %8s  %s\n", "metric", "median A", "median B", "worse by", "bound", "spread", "verdict")
		for _, d := range endToEnd {
			va, vb := a.values(s.name, d.Name), b.values(s.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			if on, ok := definedOn[d.Name]; ok && on != s.name {
				continue
			}
			worse, word := verdict(d, va, vb)
			switch word {
			case "REGRESSION":
				regressions++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(out, "  %-22s %16.6g %16.6g %+8.2f%% %7.2f%% %7.2f%%  %s\n",
				d.Name, median(va), median(vb), 100*worse, 100*d.Bound, 100*math.Max(spread(va), spread(vb)), word)
		}
	}
	fmt.Fprintf(out, "%d regression(s), %d unresolved\n", regressions, unresolved)
	if regressions > 0 {
		return errRegression
	}
	return nil
}
