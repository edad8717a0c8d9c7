package main

// Turning passes into the named metrics, and printing them.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// endToEndValues computes the end-to-end metrics of an untraced pass.
func endToEndValues(p *pass, setupS float64) map[string]float64 {
	ops := float64(p.ops)
	v := map[string]float64{
		"setup_s":            setupS,
		"wall_ns_per_op":     fastestFifth(p.sliceNsPerOp),
		"virt_ns_per_op":     float64(p.virtNS) / ops,
		"virt_fault_p50_ns":  float64(p.p50),
		"virt_fault_p99_ns":  float64(p.p99),
		"host_allocs_per_op": float64(p.mallocs) / ops,
		"host_maxrss_mb":     maxRSSMB(),
		"ok_share":           float64(p.ops-p.failed) / ops,
	}
	for _, d := range endToEnd {
		if _, ok := v[d.Name]; !ok {
			v[d.Name] = notApplicable
		}
	}
	for name, x := range p.extras {
		v[name] = x
	}
	return v
}

// fastestFifth is the mean of the fastest fifth of the slices (5 of 25). The
// median of the slices was tried first: on the shared 2-core box this was
// sized on, other tenants of the host slow whole stretches of 10 s to a
// minute, which moved the median of a 10 s run by 5 % run to run (50 % at
// worst) while the fastest slices moved by 2 %. Interference only ever adds
// time, so the least disturbed slices are the best estimate of what the
// code costs; a real slowdown moves every slice.
func fastestFifth(slices []float64) float64 {
	s := append([]float64(nil), slices...)
	sort.Float64s(s)
	s = s[:(len(s)+4)/5]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// perLayerValues computes the per-layer metrics of a traced pass. plain is
// the untraced pass over the same steps (for the tracing overhead).
func perLayerValues(p, plain *pass, tr *tracer, decorated bool) map[string]float64 {
	v := make(map[string]float64)
	for _, sf := range spanFields {
		for _, f := range sf.fields {
			v[spanNames[sf.name]+"."+f] = spanValue(&tr.agg[sf.name], f)
		}
	}
	c, ext := p.delta.core, p.delta.ext

	if !decorated {
		// paper_tables builds its worlds through workload.Scenario, which
		// takes no decorated layer: only the layers' own counters are
		// visible, and no time.
		v["core.fault.resident.count"] = float64(c.ReactivateHits)
		v["core.fault.zero_fill.count"] = float64(c.ZeroFillFaults)
		v["core.fault.cow.count"] = float64(c.CowFaults)
		v["core.fault.pagein.count"] = float64(c.Pageins)
		v["pmap.enter.count"] = float64(ext[cEnters])
		v["pmap.remove.count"] = float64(ext[cRemoves])
		v["pmap.protect.count"] = float64(ext[cProtects])
		v["pmap.zero_page.count"] = float64(ext[cZeroPages])
		v["pmap.copy_page.count"] = float64(ext[cCopyPages])
		v["pmap.enter_range.count"] = float64(ext[cRangeEnters])
		v["pmap.remove_all.count"] = float64(ext[cRemoveAlls])
		v["pmap.copy_on_write.count"] = float64(ext[cCopyOnWrites])
	}

	v["core.fault.retries"] = float64(c.FaultRetries)
	v["core.fault.busy_waits"] = float64(c.BusyWaits)
	v["core.map.lookups"] = float64(c.MapLookups)
	v["core.map.hint_hit_ratio"] = ratio(c.MapHintHits, c.MapHintHits+c.MapHintMisses)
	v["core.object.shadows_created"] = float64(c.ShadowsCreated)
	v["core.object.collapse_ratio"] = ratio(c.ShadowsCollapsed, c.ShadowsCreated)
	v["core.object.live_peak"] = float64(p.livePeak)
	v["core.object.cache_revives"] = float64(c.CacheRevives)
	v["core.page.allocated"] = float64(c.PagesAllocated)
	v["core.page.magazine_hit_ratio"] = ratio(c.MagazineHits, c.PagesAllocated)
	v["core.page.depot_refills"] = float64(c.DepotRefills)
	v["core.page.steals"] = float64(c.MagazineSteals)
	v["core.pageout.pages"] = float64(c.Pageouts)
	v["core.pageout.pages_per_run"] = ratio(c.PageoutRunPages, c.PageoutRuns)
	v["core.pageout.write_fails"] = float64(c.PageoutWriteFails)
	v["core.pageout.skips"] = float64(c.PageoutSkips)
	v["core.pagerflight.round_trips"] = float64(c.PagerRoundTrips)
	v["core.pagerflight.pages_per_trip"] = ratio(c.Pageins, c.PagerRoundTrips)
	v["core.pagerflight.joins"] = float64(c.PagerFlightJoins)
	v["core.pagerflight.retries"] = float64(c.PagerRetries)
	v["core.pagerflight.timeouts"] = float64(c.PagerTimeouts)
	v["core.pagerflight.errors"] = float64(c.PagerErrors)
	v["hw.tlb.hit_ratio"] = ratio(ext[cTLBHits], ext[cTLBHits]+ext[cTLBMisses])
	v["hw.ipis_sent"] = float64(ext[cIPIs])
	for _, layer := range []string{"inode", "swap", "ztier", "netpager", "backend"} {
		v["pager."+layer+".errors"] = float64(p.pagerErrs[layer])
	}
	v["pager.ztier.hit_ratio"] = ratio(c.ZtierHits, c.ZtierHits+c.ZtierMisses)
	v["pager.ztier.compression_ratio"] = ratio(c.ZtierStoredBytes, c.ZtierCompressedBytes)
	v["pager.ztier.evictions"] = float64(c.ZtierEvictions)
	v["pager.ztier.bypasses"] = float64(c.ZtierBypasses)
	v["unixfs.disk.reads"] = float64(ext[cDiskReads])
	v["unixfs.disk.writes"] = float64(ext[cDiskWrites])

	ops := float64(p.ops)
	v["host.cpu_ns_per_op"] = float64(p.cpuNS) / ops
	v["host.gc_cycles"] = float64(p.gcCycles)
	v["host.alloc_bytes_per_op"] = float64(p.bytes) / ops
	v["trace.spans"] = float64(tr.total)
	v["trace.overhead_pct"] = 100 * (float64(p.wallNS)/float64(plain.wallNS) - 1)
	v["trace.coverage_pct"] = 100 * float64(tr.layerSelf()) / float64(p.wallNS-tr.traceSelf)
	return v
}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric of defs by name and unit, then the result line.
func emit(out io.Writer, defs []metricDef, values map[string]float64, attempted, failed int) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		x, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		fmt.Fprintf(out, "%-36s %18.6f %s\n", d.Name, x, d.Unit)
		res.Metrics[d.Name] = metricValue{Value: x, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// printShares prints where the traced pass's time went: each span name's
// share of the wall time left after the recorder's own cost, and of the
// virtual time (the evidence that a layer does most of its work on one
// workload and little on another).
func printShares(out io.Writer, tr *tracer, p *pass) {
	wall := float64(p.wallNS - tr.traceSelf)
	virt := float64(p.virtNS)
	type row struct {
		name       string
		count      uint64
		wall, virt float64
	}
	var rows []row
	for i := range tr.agg {
		if a := &tr.agg[i]; a.count > 0 {
			rows = append(rows, row{spanNames[i], a.count, float64(a.wallSelf), float64(a.virtSelf)})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].wall > rows[j].wall })
	fmt.Fprintf(out, "%-28s %12s %10s %10s\n", "span", "count", "wall self", "virt self")
	for _, r := range rows {
		fmt.Fprintf(out, "%-28s %12d %9.1f%% %9.1f%%\n", r.name, r.count, 100*r.wall/wall, 100*r.virt/virt)
	}
	fmt.Fprintf(out, "%-28s %12s %9.1f%%\n", "(driver, outside any span)", "", 100*(wall-float64(tr.layerSelf()))/wall)
}
