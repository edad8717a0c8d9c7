package core

// BenchmarkParallelFaults measures fault-path throughput when every
// goroutine faults against its own address map and objects — the workload
// the sharded resident-page layer exists for. With the old global page
// lock this curve was flat; with lock striping it should scale with
// -cpu 1,4,8.

import (
	"runtime"
	"sync/atomic"
	"testing"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/vax"
	"machvm/internal/vmtypes"
)

func BenchmarkParallelFaults(b *testing.B) {
	nproc := runtime.GOMAXPROCS(0)
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 65536,
		CPUs:       nproc,
		TLBSize:    64,
	})
	mod := vax.New(machine, pmap.ShootImmediate)
	k := MustNewKernel(Config{Machine: machine, Module: mod, PageSize: 4096})
	pageSize := k.PageSize()
	const regionPages = 64

	var cpuIdx atomic.Int32
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cpu := machine.CPU(int(cpuIdx.Add(1)-1) % nproc)
		m := k.NewMap()
		defer m.Destroy()
		m.Pmap().Activate(cpu)
		defer m.Pmap().Deactivate(cpu)

		size := regionPages * pageSize
		addr, err := m.Allocate(0, size, true)
		if err != nil {
			b.Error(err)
			return
		}
		i := 0
		for pb.Next() {
			va := addr + vmtypes.VA(uint64(i%regionPages)*pageSize)
			if err := k.Touch(cpu, m, va, true); err != nil {
				b.Error(err)
				return
			}
			i++
			if i%regionPages == 0 {
				// Recycle the region so every Touch stays a real
				// zero-fill fault instead of a TLB hit.
				if err := m.Deallocate(addr, size); err != nil {
					b.Error(err)
					return
				}
				if addr, err = m.Allocate(0, size, true); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// BenchmarkParallelFaultsSharedMap is the single-map variant: every
// goroutine faults against one shared address map (each over its own page
// range). Before the map lock became a read-write lock with versioned
// revalidation, all of these faults serialized on the map mutex for their
// entire duration, pager I/O included; now only the occasional region
// recycle (a mutator) takes the lock exclusively.
func BenchmarkParallelFaultsSharedMap(b *testing.B) {
	runSharedMapZeroFill(b)
}

// BenchmarkParallelZeroFill is the allocator-path benchmark CI's allocs
// gate reads (same workload as the shared-map fault benchmark, under the
// name the gate matches): every fault takes a page from the free
// layer, so this is the benchmark that shows whether page allocation hits
// the per-shard magazines or serializes on the depot lock.
func BenchmarkParallelZeroFill(b *testing.B) {
	runSharedMapZeroFill(b)
}

func runSharedMapZeroFill(b *testing.B) {
	nproc := runtime.GOMAXPROCS(0)
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 65536,
		CPUs:       nproc,
		TLBSize:    64,
	})
	mod := vax.New(machine, pmap.ShootImmediate)
	k := MustNewKernel(Config{Machine: machine, Module: mod, PageSize: 4096})
	pageSize := k.PageSize()
	const regionPages = 64

	m := k.NewMap()
	defer m.Destroy()

	var cpuIdx atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		cpu := machine.CPU(int(cpuIdx.Add(1)-1) % nproc)
		m.Pmap().Activate(cpu)
		defer m.Pmap().Deactivate(cpu)

		size := regionPages * pageSize
		addr, err := m.Allocate(0, size, true)
		if err != nil {
			b.Error(err)
			return
		}
		i := 0
		for pb.Next() {
			va := addr + vmtypes.VA(uint64(i%regionPages)*pageSize)
			if err := k.Touch(cpu, m, va, true); err != nil {
				b.Error(err)
				return
			}
			i++
			if i%regionPages == 0 {
				if err := m.Deallocate(addr, size); err != nil {
					b.Error(err)
					return
				}
				if addr, err = m.Allocate(0, size, true); err != nil {
					b.Error(err)
					return
				}
			}
		}
	})
}

// BenchmarkParallelResidentFaults isolates the map-lock effect: one shared
// map, all pages resident, every goroutine re-faulting its own page. No
// page allocation, no pager — the fault is lookup + revalidate + pmap
// enter. Under the old exclusive map mutex this serialized completely;
// under the read-write lock the goroutines only share read locks.
func BenchmarkParallelResidentFaults(b *testing.B) {
	nproc := runtime.GOMAXPROCS(0)
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 65536,
		CPUs:       nproc,
		TLBSize:    64,
	})
	mod := vax.New(machine, pmap.ShootImmediate)
	k := MustNewKernel(Config{Machine: machine, Module: mod, PageSize: 4096})
	pageSize := k.PageSize()

	m := k.NewMap()
	defer m.Destroy()
	const slots = 64
	addr, err := m.Allocate(0, slots*pageSize, true)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < slots; i++ {
		if err := k.Fault(m, addr+vmtypes.VA(uint64(i)*pageSize), vmtypes.ProtWrite); err != nil {
			b.Fatal(err)
		}
	}

	var slot atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		va := addr + vmtypes.VA(uint64(slot.Add(1)-1)%slots*pageSize)
		for pb.Next() {
			if err := k.Fault(m, va, vmtypes.ProtWrite); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkFaultResidentHit measures the fault fast path: the page is
// resident and the hardware mapping identical, so vm_fault does a hint
// lookup, claims the page, revalidates the map version and re-enters the
// unchanged PTE. This path must stay allocation-free — it is the one every
// TLB-forgetting architecture (and every pmap_collect) replays constantly.
func BenchmarkFaultResidentHit(b *testing.B) {
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 8192,
		CPUs:       1,
		TLBSize:    64,
	})
	mod := vax.New(machine, pmap.ShootImmediate)
	k := MustNewKernel(Config{Machine: machine, Module: mod, PageSize: 4096})
	cpu := machine.CPU(0)

	m := k.NewMap()
	defer m.Destroy()
	m.Pmap().Activate(cpu)
	defer m.Pmap().Deactivate(cpu)

	addr, err := m.Allocate(0, k.PageSize(), true)
	if err != nil {
		b.Fatal(err)
	}
	// Fault the page in once; every iteration after that is a pure
	// resident-page re-fault.
	if err := k.Fault(m, addr, vmtypes.ProtWrite); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Fault(m, addr, vmtypes.ProtWrite); err != nil {
			b.Fatal(err)
		}
	}
}
