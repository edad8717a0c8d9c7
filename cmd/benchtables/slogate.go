package main

// The -slogate mode: gate the deterministic multi-tenant server world
// against the checked-in SLO.json thresholds, then sweep the
// fault/failover matrix. Every number is virtual-clock derived, so the
// gate gives the same verdict on any host.

import (
	"context"
	"fmt"
	"os"

	"machvm/internal/measure"
	"machvm/internal/workload"
	"machvm/internal/workload/server"
)

// serverArch pins the gated server world to one machine so the thresholds
// are comparable across commits.
const serverArch = workload.ArchVAX8650

// gatedServer is the server world the thresholds in SLO.json describe.
var gatedServer = server.Config{
	Tenants:        4,
	TasksPerTenant: 12,
	ImagePages:     16,
	WorkPages:      8,
	Requests:       32,
	PageoutEvery:   8,
}

// runSLOGate is the CI gate: the deterministic server world must meet
// the checked-in thresholds, and the full fault/failover matrix must
// pass with zero invariant violations.
func runSLOGate(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	thresholds, err := measure.ParseSLOThresholds(data)
	if err != nil {
		return err
	}

	w, err := server.Scenario(gatedServer, workload.WithMemoryMB(8)).Build(serverArch)
	if err != nil {
		return err
	}
	rep, err := w.Run(context.Background())
	if err != nil {
		return err
	}
	if rep.SLO == nil {
		return fmt.Errorf("server world produced no SLO report")
	}
	fmt.Printf("server world SLO (tenants=%d):\n%s\n", gatedServer.Tenants, rep.SLO.String())
	gate := thresholds.Evaluate(*rep.SLO)
	if !gate.Pass {
		for _, f := range gate.Failures {
			fmt.Fprintf(os.Stderr, "SLO FAIL: %s\n", f)
		}
		return fmt.Errorf("SLO gate failed: %d threshold(s) violated", len(gate.Failures))
	}
	fmt.Printf("SLO gate: PASS (%s)\n\n", path)

	results := server.RunMatrix(context.Background(), serverArch,
		server.DefaultMatrix(), server.MatrixConfig{})
	fmt.Print(server.Grid(results))
	if !server.AllPass(results) {
		return fmt.Errorf("fault/failover matrix failed")
	}
	fmt.Printf("fault/failover matrix: PASS (%d cells)\n", len(results))
	return nil
}
