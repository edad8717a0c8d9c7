package main

import "testing"

// TestVirtualScalingPinned holds the ten makespans of the `-table mp`
// scaling curve to their checked-in values (ROADMAP item 4's before-row:
// private 16.00x, shared 12.63x at 16 simulated CPUs) and runs each twice,
// so a change to the fault path's virtual charging — or any nondeterminism
// in it — has to be explained here.
func TestVirtualScalingPinned(t *testing.T) {
	want := map[bool][]int64{
		false: {1843635200, 921817600, 460908800, 230454400, 115227200},
		true:  {1843635200, 938214400, 485497600, 259138000, 145954000},
	}
	for shared, makespans := range want {
		for i, n := range scalingSimCPUs {
			for run := 0; run < 2; run++ {
				got, err := measureVirtualScaling(n, shared)
				if err != nil {
					t.Fatalf("shared=%v cpus=%d: %v", shared, n, err)
				}
				if got != makespans[i] {
					t.Errorf("shared=%v cpus=%d run %d: makespan %d vns, want %d", shared, n, run, got, makespans[i])
				}
			}
		}
	}
}
