package core

// Virtual-clock determinism (DESIGN.md §2): two identical runs land on
// byte-identical totals.

import (
	"testing"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/vax"
	"machvm/internal/vmtypes"
)

// chargeWorkload runs a fixed serial fault workload on nCPUs simulated
// CPUs — each with its own single-entry map, so address-map index shape
// (whose treap priorities differ between in-process runs) cannot affect
// costs — and returns the final virtual-clock total.
func chargeWorkload(t *testing.T, nCPUs int) int64 {
	t.Helper()
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 8192,
		CPUs:       nCPUs,
		TLBSize:    64,
	})
	mod := vax.New(machine, pmap.ShootImmediate)
	k := MustNewKernel(Config{Machine: machine, Module: mod, PageSize: 4096})
	pageSize := k.PageSize()
	const pages = 16

	for i := 0; i < nCPUs; i++ {
		cpu := machine.CPU(i)
		m := k.NewMap()
		m.Pmap().Activate(cpu)
		addr, err := m.Allocate(0, pages*pageSize, true)
		if err != nil {
			t.Fatal(err)
		}
		for cycle := 0; cycle < 3; cycle++ {
			for p := 0; p < pages; p++ {
				va := addr + vmtypes.VA(uint64(p)*pageSize)
				if err := k.Touch(cpu, m, va, cycle%2 == 1); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Deallocate(addr, pages*pageSize); err != nil {
				t.Fatal(err)
			}
			if addr, err = m.Allocate(0, pages*pageSize, true); err != nil {
				t.Fatal(err)
			}
		}
		m.Pmap().Deactivate(cpu)
		m.Destroy()
	}
	return machine.Clock.Now()
}

// TestVirtualClockDeterminism: the same serial workload run twice must
// land on the byte-identical virtual total — the property the scaling
// curve of `benchtables -table mp` relies on.
func TestVirtualClockDeterminism(t *testing.T) {
	first := chargeWorkload(t, 4)
	second := chargeWorkload(t, 4)
	if first != second {
		t.Fatalf("two identical runs diverged: %d vs %d virtual ns", first, second)
	}
}
