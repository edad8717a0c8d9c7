package server_test

import (
	"context"
	"testing"

	"machvm/internal/replay"
	"machvm/internal/workload"
	"machvm/internal/workload/server"
)

// smallCfg keeps the deterministic world fast enough for -race CI while
// still exercising every mechanism: multiple tenants, fork/exec churn,
// COW pushes, shared-image paging, output files, pageout scans.
var smallCfg = server.Config{
	Tenants:        2,
	TasksPerTenant: 6,
	ImagePages:     8,
	WorkPages:      4,
	Requests:       8,
	PageoutEvery:   5,
}

func runOnce(t *testing.T, a workload.Arch) (workload.Report, string, int64) {
	t.Helper()
	w, err := server.Scenario(smallCfg, workload.WithMemoryMB(4)).Build(a)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	mr := w.(*workload.MachRun)
	defer mr.World.Close()
	return rep, workload.StatsString(mr.World.Kernel), mr.World.Machine.Clock.Now()
}

func TestServerWorldDeterministic(t *testing.T) {
	// Two fresh worlds, same config: identical stats, clock, and SLO
	// percentiles, because everything runs on the virtual clock.
	rep1, stats1, clock1 := runOnce(t, workload.ArchSun3)
	rep2, stats2, clock2 := runOnce(t, workload.ArchSun3)
	if stats1 != stats2 {
		t.Errorf("stats diverged:\n  run1: %s\n  run2: %s", stats1, stats2)
	}
	if clock1 != clock2 {
		t.Errorf("virtual clock diverged: %d vs %d", clock1, clock2)
	}
	if rep1.SLO == nil || rep2.SLO == nil {
		t.Fatal("missing SLO snapshot")
	}
	if *rep1.SLO != *rep2.SLO {
		t.Errorf("SLO diverged:\n  run1: %+v\n  run2: %+v", *rep1.SLO, *rep2.SLO)
	}
	if rep1.SLO.Faults == 0 || rep1.SLO.FaultP99NS <= 0 {
		t.Errorf("implausible SLO snapshot: %+v", *rep1.SLO)
	}
	if rep1.SLO.InvariantViolations != 0 {
		t.Errorf("%d invariant violations", rep1.SLO.InvariantViolations)
	}
	if rep1.Ops != smallCfg.Tenants*smallCfg.TasksPerTenant {
		t.Errorf("ran %d tasks, want %d", rep1.Ops, smallCfg.Tenants*smallCfg.TasksPerTenant)
	}
}

func TestServerWorldRecordReplay(t *testing.T) {
	// Golden replay: record a full server-world run, replay it on a fresh
	// kernel, and require a bit-identical event stream, clock, and stats.
	cfg := workload.NewConfig()
	cfg.MemoryMB = 4
	w, err := workload.BuildMachWorld(workload.ArchVAX8650, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.StartTrace()
	if _, err := server.Run(context.Background(), w, smallCfg); err != nil {
		t.Fatal(err)
	}
	tr := w.StopTrace()
	if len(tr.Events) == 0 {
		t.Fatal("recorded no events")
	}

	res, err := replay.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK() {
		t.Fatalf("replay diverged:\n%s", res.Divergence())
	}
}

var matrixCfg = server.MatrixConfig{Tasks: 5, WorkPages: 4}

func TestServerFaultMatrix(t *testing.T) {
	// The full {pager} x {memory} x {teardown} sweep on a shrunk world.
	if testing.Short() {
		t.Skip("full matrix includes dead-pager timeout cells")
	}
	results := server.RunMatrix(context.Background(), workload.ArchVAX8200, server.DefaultMatrix(), matrixCfg)
	if len(results) != 16 {
		t.Fatalf("expected 16 cells, got %d", len(results))
	}
	t.Logf("matrix:\n%s", server.Grid(results))
	if !server.AllPass(results) {
		t.Errorf("matrix failures:\n%s", server.Grid(results))
	}
	for _, r := range results {
		if r.InvariantViolations != 0 {
			t.Errorf("%s: %d invariant violations", r.Cell.Name(), r.InvariantViolations)
		}
	}
}

func TestServerMatrixRaceCell(t *testing.T) {
	// The nastiest single cell — injected pager failures, memory
	// exhaustion, and concurrent teardown — run under -race in CI.
	cell := server.Cell{Pager: server.PagerFlaky, OOM: true, TeardownRace: true}
	r := server.RunCell(context.Background(), workload.ArchVAX8200, cell, matrixCfg)
	if !r.Pass {
		t.Fatalf("cell failed: %s\n%s", r.Reason, server.Grid([]server.CellResult{r}))
	}
	if r.InvariantViolations != 0 {
		t.Fatalf("%d invariant violations", r.InvariantViolations)
	}
}
