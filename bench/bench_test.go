package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"machvm/internal/pmap"
	"machvm/internal/vmtypes"
)

// smallSpecs are the five workloads at 1/100 of their 20 s size, without
// the shape guards (a few hundred requests do not make a latency curve);
// paper_tables leaves out the kernel-build rows, which alone take a second.
func smallSpecs() []*spec {
	out := make([]*spec, len(workloads))
	for i, s := range workloads {
		c := *s
		c.stepsAt20s = max(s.stepsAt20s/100, 1)
		c.guard = nil
		c.virtTolerance *= 5 // a few thousand ops leave the tier's timing luck unaveraged
		if c.name == "paper_tables" {
			c.build = func(seed uint64, tr *tracer) (stream, error) { return newPaperTables(seed, tr, false) }
		}
		out[i] = &c
	}
	return out
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifest keeps BENCHMARK.json identical to the tables in metrics.go
// and inside the limits of the contract it is written to.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := buildManifest(onDisk.RunSeconds); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from go run ./bench -manifest -seconds %d", onDisk.RunSeconds)
	}
	if n := len(onDisk.Workloads); n != 5 {
		t.Errorf("%d workloads, want the five named ones", n)
	}
	if n := len(onDisk.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(onDisk.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	if onDisk.RunSeconds < 1 || onDisk.RunSeconds > 60 {
		t.Errorf("run_seconds %d", onDisk.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range onDisk.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range onDisk.EndToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("unit %q of %s", d.Unit, d.Name)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("bound %v of %s", d.Bound, d.Name)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == lower
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range onDisk.PerLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("unit %q of %s", d.Unit, d.Name)
		}
	}
}

// lastLine parses the result line emit printed last.
func lastLine(t *testing.T, out *bytes.Buffer) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	return res
}

// virtualMetrics are the end-to-end metrics read off the virtual clock.
var virtualMetrics = []string{
	"virt_ns_per_op", "virt_fault_p50_ns", "virt_fault_p99_ns",
	"req_p50_vms_r1", "req_p99_vms_r1", "req_p99_vms_r2", "req_p99_vms_r3",
	"max_rate_slo_rps", "paper_ratio_err_pct",
}

// TestWorkloads runs every workload at 1/100 scale: every metric named in
// BENCHMARK.json comes out, with its unit; the same seed gives the same
// virtual numbers and another seed different ones; the traced pass
// reproduces the plain one and accounts for its time.
func TestWorkloads(t *testing.T) {
	for _, s := range smallSpecs() {
		t.Run(s.name, func(t *testing.T) {
			steps := s.steps(20)
			measure := func(seed uint64) map[string]float64 {
				p, setupS, err := measureUntraced(s, seed, steps, 1)
				if err != nil {
					t.Fatal(err)
				}
				if p.failed != 0 {
					t.Fatalf("%d of %d operations failed: %v", p.failed, p.ops, p.notes)
				}
				var out bytes.Buffer
				v := endToEndValues(p, setupS)
				if err := emit(&out, endToEnd, v, p.ops, p.failed); err != nil {
					t.Fatal(err)
				}
				res := lastLine(t, &out)
				if len(res.Metrics) != len(endToEnd) || res.Attempted < 1 {
					t.Fatalf("result line carries %d metrics, %d attempted", len(res.Metrics), res.Attempted)
				}
				for _, d := range endToEnd {
					if m := res.Metrics[d.Name]; m.Unit != d.Unit || m.Value == 0 {
						t.Errorf("%s = %v %q, want a non-zero value in %q", d.Name, m.Value, m.Unit, d.Unit)
					}
				}
				return v
			}
			a, b, c := measure(7), measure(7), measure(8)
			for _, name := range virtualMetrics {
				if s.virtTolerance == 0 && a[name] != b[name] {
					t.Errorf("%s: %v and %v from the same seed", name, a[name], b[name])
				}
			}
			if d := math.Abs(a["virt_ns_per_op"]/b["virt_ns_per_op"] - 1); d > s.virtTolerance {
				t.Errorf("virt_ns_per_op: %v and %v from the same seed", a["virt_ns_per_op"], b["virt_ns_per_op"])
			}
			if a["virt_ns_per_op"] == c["virt_ns_per_op"] {
				t.Errorf("virt_ns_per_op %v from two different seeds", a["virt_ns_per_op"])
			}

			plain, traced, tr, violations, err := measureTraced(s, 7, max(steps/5, 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range violations {
				t.Errorf("decorator fidelity: %s", v)
			}
			var out bytes.Buffer
			defs := perLayer()
			v := perLayerValues(traced, plain, tr, s.decorated)
			if err := emit(&out, defs, v, traced.ops, traced.failed); err != nil {
				t.Fatal(err)
			}
			if res := lastLine(t, &out); len(res.Metrics) != len(defs) {
				t.Errorf("result line carries %d per-layer metrics, want %d", len(res.Metrics), len(defs))
			}
			if c := v["trace.coverage_pct"]; c < 90 || c > 100.5 {
				t.Errorf("spans account for %.1f%% of the traced wall time", c)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := tr.writeChrome(path); err != nil {
				t.Fatal(err)
			}
			var doc struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, %v", len(doc.TraceEvents), err)
			}
		})
	}
}

// TestContentModelCatchesCorruption flips bytes of resident pages behind the
// kernel's back: the reads that follow must be counted as failed, or a
// failure count of zero would mean nothing.
func TestContentModelCatchesCorruption(t *testing.T) {
	w, err := buildAnonFault(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	a := w.(*anonFault)
	if _, failed := a.step(); failed != 0 {
		t.Fatalf("%d failures before any corruption: %v", failed, a.notes)
	}
	// The newest region stays live for 31 more steps and is read about 32
	// times in each.
	newest := a.ring[(a.oldest+anonRegions-1)%anonRegions]
	mem := a.w.machine.Mem
	for p := 0; p < anonRegionPages; p++ {
		pfn, ok := a.task.Map.Pmap().Extract(newest.va + vmtypes.VA(p*pageSize))
		if !ok {
			continue // evicted from the refill cache; the page is still resident
		}
		mem.LockFrame(pfn)
		mem.Frame(pfn)[0] ^= 0xFF
		mem.UnlockFrame(pfn)
	}
	if _, failed := a.step(); failed == 0 {
		t.Fatal("corrupted pages were read back without a single failure")
	}
}

// fakeMap is a pmap.Map with none of the optional routines; fakeR, fakeC and
// fakeP are the routines alone, for the test to combine.
type fakeMap struct{ pmap.Map }

type fakeR struct{}

func (fakeR) EnterRange(vmtypes.VA, []vmtypes.PFN, vmtypes.Prot, bool) {}
func (fakeR) SuperSpan() uint64                                        { return 1 << 16 }
func (fakeR) SuperActive(vmtypes.VA) bool                              { return true }

type fakeC struct{ got *pmap.Map }

func (f fakeC) CopyMappings(dst pmap.Map, _ vmtypes.VA, _ uint64, _ vmtypes.VA) { *f.got = dst }

type fakeP struct{}

func (fakeP) Pageable(vmtypes.VA, vmtypes.VA, bool) {}

// TestDecoratorForwardsOptionalRoutines: the kernel finds pmap_copy,
// pmap_pageable and the range extension by type assertion, so a decorated
// map must implement exactly the ones its map does.
func TestDecoratorForwardsOptionalRoutines(t *testing.T) {
	var got pmap.Map
	type (
		R = pmap.RangeEnterer
		C = pmap.Copier
		P = pmap.Pageabler
	)
	r, c, p := fakeR{}, fakeC{got: &got}, fakeP{}
	cases := []struct {
		name    string
		inner   pmap.Map
		r, c, p bool
	}{
		{"none", fakeMap{}, false, false, false},
		{"R", struct {
			fakeMap
			R
		}{R: r}, true, false, false},
		{"C", struct {
			fakeMap
			C
		}{C: c}, false, true, false},
		{"P", struct {
			fakeMap
			P
		}{P: p}, false, false, true},
		{"RC", struct {
			fakeMap
			R
			C
		}{R: r, C: c}, true, true, false},
		{"RP", struct {
			fakeMap
			R
			P
		}{R: r, P: p}, true, false, true},
		{"CP", struct {
			fakeMap
			C
			P
		}{C: c, P: p}, false, true, true},
		{"RCP", struct {
			fakeMap
			R
			C
			P
		}{R: r, C: c, P: p}, true, true, true},
	}
	for _, tc := range cases {
		wrapped := wrapMap(tc.inner, nil)
		_, isR := wrapped.(pmap.RangeEnterer)
		cp, isC := wrapped.(pmap.Copier)
		_, isP := wrapped.(pmap.Pageabler)
		if isR != tc.r || isC != tc.c || isP != tc.p {
			t.Errorf("%s: decorated map has range=%v copy=%v pageable=%v, want %v %v %v", tc.name, isR, isC, isP, tc.r, tc.c, tc.p)
		}
		if isC {
			// pmap_copy must hand the module its own map type, not ours.
			dst := fakeMap{}
			cp.CopyMappings(wrapMap(dst, nil), 0, 0, 0)
			if got != pmap.Map(dst) {
				t.Errorf("%s: CopyMappings passed %T to the module, want the undecorated map", tc.name, got)
			}
		}
	}
}

// TestDecoratedVAXMap: the real module with all three routines.
func TestDecoratedVAXMap(t *testing.T) {
	w, err := vax8200World(1<<20, 1, pmap.ShootImmediate, newTracer())
	if err != nil {
		t.Fatal(err)
	}
	m := w.k.NewMap()
	defer m.Destroy()
	pm := m.Pmap()
	if _, ok := pm.(pmap.RangeEnterer); !ok {
		t.Error("decorated vax map lost EnterRange")
	}
	if _, ok := pm.(pmap.Copier); !ok {
		t.Error("decorated vax map lost CopyMappings")
	}
	if _, ok := pm.(pmap.Pageabler); !ok {
		t.Error("decorated vax map lost Pageable")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles %v %v, want 1 4", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	d := metricDef{Name: "wall_ns_per_op", Unit: "ns/op", Better: lower, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(v []float64, k float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{80, 120, 95, 130, 70, 100, 110, 90, 125, 75}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", steady, steady, "unchanged"},
		{"within the bound", steady, scale(steady, 1.05), "unchanged"},
		{"slower", steady, scale(steady, 1.2), "REGRESSION"},
		{"faster", steady, scale(steady, 0.8), "improved"},
		{"noise hides it", noisy, scale(noisy, 1.05), "unresolved"},
		{"noisy but apart", noisy, scale(noisy, 2), "REGRESSION"},
		{"noisy but apart, better", scale(noisy, 2), noisy, "improved"},
	} {
		if _, got := verdict(d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	up := metricDef{Name: "max_rate_slo_rps", Better: higher, Bound: 0.10}
	if _, got := verdict(up, steady, scale(steady, 0.8)); got != "REGRESSION" {
		t.Errorf("a lower rate is %s, want REGRESSION", got)
	}
}
