package core

// Tests for per-CPU virtual-clock charge buffering (DESIGN.md §2): the
// batching invariant (buffered and write-through charging produce the
// same virtual totals), determinism (two identical runs produce
// byte-identical totals), and flush correctness under concurrency (run
// with -race).

import (
	"sync"
	"testing"
	"time"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/vax"
	"machvm/internal/vmtypes"
)

// chargeWorkload runs a fixed serial fault workload on nCPUs simulated
// CPUs — each with its own single-entry map, so address-map index shape
// (whose treap priorities differ between in-process runs) cannot affect
// costs — and returns the final virtual-clock total.
func chargeWorkload(t *testing.T, nCPUs int, unbatched bool) int64 {
	t.Helper()
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 8192,
		CPUs:       nCPUs,
		TLBSize:    64,
	})
	machine.SetUnbatchedCharging(unbatched)
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
	machine.FlushAllCharges()
	return machine.Clock.Now()
}

// TestChargeBatchingInvariant: batched per-CPU charging and unbatched
// write-through charging must produce identical virtual totals — the
// buffers only delay when work reaches the clock, never how much.
func TestChargeBatchingInvariant(t *testing.T) {
	batched := chargeWorkload(t, 4, false)
	direct := chargeWorkload(t, 4, true)
	if batched != direct {
		t.Fatalf("batched charging total %d != unbatched total %d", batched, direct)
	}
	if batched == 0 {
		t.Fatal("workload charged nothing")
	}
}

// TestVirtualClockDeterminism: the same serial workload run twice must
// land on the byte-identical virtual total — the property the scaling
// curve of `benchtables -table mp` relies on.
func TestVirtualClockDeterminism(t *testing.T) {
	first := chargeWorkload(t, 4, false)
	second := chargeWorkload(t, 4, false)
	if first != second {
		t.Fatalf("two identical runs diverged: %d vs %d virtual ns", first, second)
	}
}

// TestChargeFlushRace exercises the per-CPU charge buffers under
// concurrent faults, the pageout daemon, map activate/deactivate churn
// and batching-mode flips. After everything joins and a final flush, no
// CPU may hold pending charges and the clock must account for at least
// every CPU-attributed nanosecond. Run with -race.
func TestChargeFlushRace(t *testing.T) {
	const (
		nCPUs = 4
		iters = 300
		pages = 16
	)
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 2048,
		CPUs:       nCPUs,
		TLBSize:    64,
	})
	mod := vax.New(machine, pmap.ShootImmediate)
	k := MustNewKernel(Config{Machine: machine, Module: mod, PageSize: 4096})
	pageSize := k.PageSize()

	stop := make(chan struct{})
	k.StartPageoutDaemon(stop, time.Millisecond)

	var wg sync.WaitGroup
	for g := 0; g < nCPUs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cpu := machine.CPU(g)
			m := k.NewMap()
			defer m.Destroy()
			addr, err := m.Allocate(0, pages*pageSize, true)
			if err != nil {
				t.Error(err)
				return
			}
			for it := 0; it < iters; it++ {
				// Activate/deactivate churn: CPU teardown must not
				// strand buffered charges.
				m.Pmap().Activate(cpu)
				va := addr + vmtypes.VA(uint64(it%pages)*pageSize)
				if err := k.Touch(cpu, m, va, it%2 == 0); err != nil {
					t.Error(err)
					return
				}
				if it%32 == 0 {
					cpu.Tick()
				}
				m.Pmap().Deactivate(cpu)
			}
		}(g)
	}

	// Batching-mode flipper: SetUnbatchedCharging must flush on every
	// transition without losing concurrent charges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			machine.SetUnbatchedCharging(i%2 == 0)
			time.Sleep(200 * time.Microsecond)
		}
		machine.SetUnbatchedCharging(false)
	}()

	wg.Wait()
	close(stop)
	machine.FlushAllCharges()

	var attributed int64
	for i := 0; i < nCPUs; i++ {
		cpu := machine.CPU(i)
		if p := cpu.PendingNS(); p != 0 {
			t.Errorf("cpu %d still holds %d pending virtual ns after final flush", i, p)
		}
		attributed += cpu.ChargedNS()
	}
	if total := machine.Clock.Now(); total < attributed {
		t.Errorf("clock total %d < %d CPU-attributed ns: charges were lost in a flush", total, attributed)
	}
}
