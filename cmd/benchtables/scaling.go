package main

import (
	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/vax"
	"machvm/internal/vmtypes"
)

// scalingSimCPUs is the simulated-CPU axis of the virtual scaling
// curves. The counts are simulated: the workload executes serially on
// the host, so a 1-core CI runner produces the same 16-CPU row as a
// 64-core workstation.
var scalingSimCPUs = []int{1, 2, 4, 8, 16}

// measureVirtualScaling runs a fixed zero-fill fault workload split
// across simCPUs simulated processors and returns the virtual-time
// makespan: the largest per-CPU share of virtual work. Execution is
// serial on the host — each simulated CPU's share runs to completion
// before the next starts — so the virtual totals are exact and
// reproducible bit-for-bit on any host.
//
// Two variants bracket the paper's §5.2 discussion:
//   - private: each simulated CPU faults in its own address map. There
//     is no inherent serialization, so the curve is near-linear.
//   - shared: every CPU works in one shared map that is active on all
//     CPUs, with deferred TLB shootdown drained at quantum boundaries.
//     Region teardown now buys TLB-coherence work on every other CPU,
//     and the curve droops accordingly.
func measureVirtualScaling(simCPUs int, shared bool) (int64, error) {
	strategy := pmap.ShootImmediate
	if shared {
		strategy = pmap.ShootDeferred
	}
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 65536,
		CPUs:       simCPUs,
		TLBSize:    64,
	})
	mod := vax.New(machine, strategy)
	k, err := core.NewKernel(core.Config{Machine: machine, Module: mod, PageSize: 4096})
	if err != nil {
		return 0, err
	}
	const (
		totalOps    = 2048
		regionPages = 64
	)
	pageSize := k.PageSize()
	regionSize := regionPages * pageSize
	opsPer := totalOps / simCPUs

	maps := make([]*core.Map, simCPUs)
	addrs := make([]vmtypes.VA, simCPUs)
	for i := range maps {
		if shared && i > 0 {
			maps[i] = maps[0]
		} else {
			maps[i] = k.NewMap()
		}
		maps[i].Pmap().Activate(machine.CPU(i))
	}
	for i, m := range maps {
		if addrs[i], err = m.Allocate(0, regionSize, true); err != nil {
			return 0, err
		}
	}

	var makespan int64
	for i, m := range maps {
		cpu := machine.CPU(i)
		addr := addrs[i]
		start := machine.Clock.Now()
		for op := 0; op < opsPer; op++ {
			va := addr + vmtypes.VA(uint64(op%regionPages)*pageSize)
			if err := k.Touch(cpu, m, va, true); err != nil {
				return 0, err
			}
			if (op+1)%regionPages == 0 {
				if err := m.Deallocate(addr, regionSize); err != nil {
					return 0, err
				}
				if shared {
					// Quantum boundary: every CPU drains its deferred
					// invalidation queue.
					machine.TickAll()
				}
				if addr, err = m.Allocate(0, regionSize, true); err != nil {
					return 0, err
				}
			}
		}
		makespan = max(makespan, machine.Clock.Now()-start)
	}
	return makespan, nil
}
