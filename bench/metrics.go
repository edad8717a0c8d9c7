package main

// The benchmark's metric vocabulary. BENCHMARK.json at the repository root
// is generated from these tables (go run ./bench -manifest) and a test keeps
// the two identical.

import (
	"fmt"
	"strings"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// notApplicable is printed for an end-to-end metric on a workload it is not
// defined on (a request latency on a workload without requests): every run
// must print every end-to-end metric, and none may be zero.
const notApplicable = 1.0

// endToEnd lists what a user of the system sees. Virtual-clock metrics are
// exact for a given seed; their bounds cover the seed-to-seed spread, since
// runs are compared across seeds. Units: "vns"/"vms" are nanoseconds and
// milliseconds of the simulated machine's virtual clock.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"wall_ns_per_op", "ns/op", lower, 0.20},
	{"virt_ns_per_op", "vns/op", lower, 0.02},
	{"virt_fault_p50_ns", "vns", lower, 0.10},
	{"virt_fault_p99_ns", "vns", lower, 0.25},
	{"host_allocs_per_op", "allocs/op", lower, 0.05},
	{"host_maxrss_mb", "MB", lower, 0.25},
	{"ok_share", "ok/attempted", higher, 0.0001},
	{"req_p50_vms_r1", "vms", lower, 0.02},
	{"req_p99_vms_r1", "vms", lower, 0.05},
	{"req_p99_vms_r2", "vms", lower, 0.10},
	{"req_p99_vms_r3", "vms", lower, 0.25},
	{"max_rate_slo_rps", "req/vs", higher, 0.10},
	{"paper_ratio_err_pct", "%", lower, 0.02},
}

// definedOn names the one workload each workload-specific end-to-end metric
// is measured on; everywhere else it prints notApplicable.
var definedOn = map[string]string{
	"req_p50_vms_r1":      "server_open",
	"req_p99_vms_r1":      "server_open",
	"req_p99_vms_r2":      "server_open",
	"req_p99_vms_r3":      "server_open",
	"max_rate_slo_rps":    "server_open",
	"paper_ratio_err_pct": "paper_tables",
}

// spanFields says which aggregates of a span name are per-layer metrics.
var spanFields = []struct {
	name   nameID
	fields []string
}{
	{nFaultResident, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nFaultZeroFill, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nFaultCow, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nFaultPagein, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nMapAllocate, []string{"count", "wall_ns", "virt_ns"}},
	{nMapDeallocate, []string{"count", "wall_ns", "virt_ns"}},
	{nMapProtect, []string{"count", "wall_ns", "virt_ns"}},
	{nTaskFork, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nTaskDestroy, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nPageoutScan, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nPmapEnter, []string{"count", "wall_ns", "virt_ns"}},
	{nPmapRemove, []string{"count", "wall_ns", "virt_ns"}},
	{nPmapProtect, []string{"count", "wall_ns", "virt_ns"}},
	{nPmapZeroPage, []string{"count", "wall_ns", "virt_ns"}},
	{nPmapCopyPage, []string{"count", "wall_ns", "virt_ns"}},
	{nPmapEnterRange, []string{"count", "wall_ns"}},
	{nPmapRemoveAll, []string{"count", "wall_ns"}},
	{nPmapCopyOnWrite, []string{"count", "wall_ns"}},
	{nPmapUpdate, []string{"count", "wall_ns"}},
	{nInodeRequest, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nInodeWrite, []string{"count", "wall_self_ns"}},
	{nSwapRequest, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nSwapWrite, []string{"count", "wall_self_ns"}},
	{nZtierRequest, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nZtierWrite, []string{"count", "wall_self_ns"}},
	{nNetRequest, []string{"count", "wall_self_ns"}},
	{nNetWrite, []string{"count", "wall_self_ns"}},
	{nBackendRequest, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nBackendWrite, []string{"count", "wall_self_ns"}},
	{nAccess, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nWorkloadScenario, []string{"count", "wall_self_ns", "virt_self_ns"}},
	{nBaselineScenario, []string{"count", "wall_self_ns", "virt_self_ns"}},
}

// counterMetrics are the per-layer metrics that come from the layers' own
// counters (deltas over the traced pass) rather than from spans.
var counterMetrics = []metricDef{
	{"core.fault.retries", "count", lower, 0},
	{"core.fault.busy_waits", "count", lower, 0},
	{"core.map.lookups", "count", lower, 0},
	{"core.map.hint_hit_ratio", "ratio", higher, 0},
	{"core.object.shadows_created", "count", lower, 0},
	{"core.object.collapse_ratio", "ratio", higher, 0},
	{"core.object.live_peak", "count", lower, 0},
	{"core.object.cache_revives", "count", higher, 0},
	{"core.page.allocated", "count", lower, 0},
	{"core.page.magazine_hit_ratio", "ratio", higher, 0},
	{"core.page.depot_refills", "count", lower, 0},
	{"core.page.steals", "count", lower, 0},
	{"core.pageout.pages", "count", lower, 0},
	{"core.pageout.pages_per_run", "pages", higher, 0},
	{"core.pageout.write_fails", "count", lower, 0},
	{"core.pageout.skips", "count", lower, 0},
	{"core.pagerflight.round_trips", "count", lower, 0},
	{"core.pagerflight.pages_per_trip", "pages", higher, 0},
	{"core.pagerflight.joins", "count", lower, 0},
	{"core.pagerflight.retries", "count", lower, 0},
	{"core.pagerflight.timeouts", "count", lower, 0},
	{"core.pagerflight.errors", "count", lower, 0},
	{"hw.tlb.hit_ratio", "ratio", higher, 0},
	{"hw.ipis_sent", "count", lower, 0},
	{"pager.inode.errors", "count", lower, 0},
	{"pager.swap.errors", "count", lower, 0},
	{"pager.ztier.errors", "count", lower, 0},
	{"pager.netpager.errors", "count", lower, 0},
	{"pager.backend.errors", "count", lower, 0},
	{"pager.ztier.hit_ratio", "ratio", higher, 0},
	{"pager.ztier.compression_ratio", "ratio", higher, 0},
	{"pager.ztier.evictions", "count", lower, 0},
	{"pager.ztier.bypasses", "count", lower, 0},
	{"unixfs.disk.reads", "count", lower, 0},
	{"unixfs.disk.writes", "count", lower, 0},
	{"host.cpu_ns_per_op", "ns/op", lower, 0},
	{"host.gc_cycles", "count", lower, 0},
	{"host.alloc_bytes_per_op", "B/op", lower, 0},
	{"trace.spans", "count", lower, 0},
	{"trace.overhead_pct", "%", lower, 0},
	{"trace.coverage_pct", "%", higher, 0},
}

// perLayer is every per-layer metric, spans first.
func perLayer() []metricDef {
	var defs []metricDef
	for _, sf := range spanFields {
		for _, f := range sf.fields {
			unit := "ns"
			switch {
			case f == "count":
				unit = "count"
			case strings.HasPrefix(f, "virt"):
				unit = "vns"
			}
			defs = append(defs, metricDef{Name: spanNames[sf.name] + "." + f, Unit: unit, Better: lower})
		}
	}
	return append(defs, counterMetrics...)
}

// spanValue returns one aggregate of a span name.
func spanValue(a *aggregate, field string) float64 {
	switch field {
	case "count":
		return float64(a.count)
	case "wall_ns":
		return float64(a.wall)
	case "wall_self_ns":
		return float64(a.wallSelf)
	case "virt_ns":
		return float64(a.virt)
	case "virt_self_ns":
		return float64(a.virtSelf)
	}
	panic(fmt.Sprintf("bench: unknown span field %q", field))
}
