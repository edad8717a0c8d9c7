package machvm_test

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// last-fault hints (§3.2), the object cache (§3.3), the optional
// pmap_copy fork prewarming (Table 3-4), the boot-time Mach page size
// (§3.1), and the per-CPU TLB size. Each reports virtual time so the
// effect of the mechanism, not the simulator, is measured.

import (
	"fmt"
	"testing"

	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/vax"
	"machvm/internal/vmtypes"
	"machvm/internal/workload"
)

func newAblationKernel(b *testing.B, cfg core.Config) (*core.Kernel, *hw.Machine) {
	b.Helper()
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.Cost8650(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 32768, // 16MB
		CPUs:       1,
		TLBSize:    64,
	})
	cfg.Machine = machine
	cfg.Module = vax.New(machine, pmap.ShootImmediate)
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	return core.MustNewKernel(cfg), machine
}

// BenchmarkAblationMapHints: a sequential fault scan over many entries,
// with and without the §3.2 hints.
func BenchmarkAblationMapHints(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "hints=on"
		if disable {
			name = "hints=off"
		}
		b.Run(name, func(b *testing.B) {
			k, machine := newAblationKernel(b, core.Config{DisableMapHints: disable})
			cpu := machine.CPU(0)
			m := k.NewMap()
			defer m.Destroy()
			m.Pmap().Activate(cpu)
			// 128 separate entries (alternating protections prevent
			// merging), then scan.
			var addrs []vmtypes.VA
			for i := 0; i < 128; i++ {
				a, err := m.Allocate(0, 4096, true)
				if err != nil {
					b.Fatal(err)
				}
				addrs = append(addrs, a)
			}
			t0 := machine.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, a := range addrs {
					if err := k.Touch(cpu, m, a, true); err != nil {
						b.Fatal(err)
					}
				}
				m.Pmap().Collect() // force refaults next round
			}
			b.StopTimer()
			b.ReportMetric(float64(machine.Clock.Now()-t0)/float64(b.N)/1e3, "vus/op")
			hits := k.Stats().MapHintHits.Load()
			lookups := k.Stats().MapLookups.Load()
			b.ReportMetric(float64(hits)/float64(lookups)*100, "hint-hit-%")
		})
	}
}

// BenchmarkAblationForkPrewarm: fork + child touches a fraction of the
// parent's pages. Lazy fork wins when the child touches little; prewarm
// pays off as the touched fraction grows.
func BenchmarkAblationForkPrewarm(b *testing.B) {
	for _, prewarm := range []bool{false, true} {
		for _, touchPct := range []int{5, 50, 100} {
			name := fmt.Sprintf("prewarm=%v/touch=%d%%", prewarm, touchPct)
			b.Run(name, func(b *testing.B) {
				k, machine := newAblationKernel(b, core.Config{PrewarmFork: prewarm})
				cpu := machine.CPU(0)
				parent := k.NewMap()
				defer parent.Destroy()
				parent.Pmap().Activate(cpu)
				const pages = 128
				addr, _ := parent.Allocate(0, pages*4096, true)
				for i := 0; i < pages; i++ {
					if err := k.Touch(cpu, parent, addr+vmtypes.VA(i*4096), true); err != nil {
						b.Fatal(err)
					}
				}
				t0 := machine.Clock.Now()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					child := parent.Fork()
					child.Pmap().Activate(cpu)
					step := 100 / touchPct
					for p := 0; p < pages; p += step {
						if err := k.Touch(cpu, child, addr+vmtypes.VA(p*4096), false); err != nil {
							b.Fatal(err)
						}
					}
					child.Pmap().Deactivate(cpu)
					child.Destroy()
					parent.Pmap().Activate(cpu)
					// Re-dirty so the next fork starts identically.
					if err := k.Touch(cpu, parent, addr, true); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(machine.Clock.Now()-t0)/float64(b.N)/1e3, "vus/op")
			})
		}
	}
}

// BenchmarkAblationObjectCache: repeated map/read/unmap of a hot file with
// the object cache enabled vs effectively disabled (size 1 with a decoy).
func BenchmarkAblationObjectCache(b *testing.B) {
	for _, cacheSize := range []int{1, 256} {
		b.Run(fmt.Sprintf("cache=%d", cacheSize), func(b *testing.B) {
			w := machWorld(b, workload.ArchVAX8650, workload.WithMemoryMB(16), workload.WithObjectCache(cacheSize))
			if _, err := w.FS.Create("hot", make([]byte, 256<<10)); err != nil {
				b.Fatal(err)
			}
			if _, err := w.FS.Create("decoy", make([]byte, 4096)); err != nil {
				b.Fatal(err)
			}
			cpu := w.Machine.CPU(0)
			m := w.Kernel.NewMap()
			defer m.Destroy()
			m.Pmap().Activate(cpu)
			buf := make([]byte, 256<<10)
			t0 := w.Machine.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.ReadFileMach(cpu, m, "hot", buf); err != nil {
					b.Fatal(err)
				}
				// The decoy evicts "hot" from a size-1 cache.
				if _, err := w.ReadFileMach(cpu, m, "decoy", buf[:4096]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(w.Machine.Clock.Now()-t0)/float64(b.N)/1e6, "vms/op")
			reads, _ := w.Inode.Traffic()
			b.ReportMetric(float64(reads)/float64(b.N), "pager-reads/op")
		})
	}
}

// BenchmarkAblationMachPageSize: the boot-time page size parameter (§3.1)
// on the VAX: bigger Mach pages amortize fault overhead but zero more.
func BenchmarkAblationMachPageSize(b *testing.B) {
	for _, pageSize := range []int{512, 1024, 4096, 8192} {
		b.Run(fmt.Sprintf("page=%d", pageSize), func(b *testing.B) {
			k, machine := newAblationKernel(b, core.Config{PageSize: pageSize})
			cpu := machine.CPU(0)
			m := k.NewMap()
			defer m.Destroy()
			m.Pmap().Activate(cpu)
			const region = 256 << 10
			t0 := machine.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr, err := m.Allocate(0, region, true)
				if err != nil {
					b.Fatal(err)
				}
				for off := 0; off < region; off += pageSize {
					if err := k.Touch(cpu, m, addr+vmtypes.VA(off), true); err != nil {
						b.Fatal(err)
					}
				}
				if err := m.Deallocate(addr, region); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(machine.Clock.Now()-t0)/float64(b.N)/1e6, "vms/op")
		})
	}
}

// BenchmarkAblationTLBSize: the same touch loop under different TLB
// capacities (the §5 observation that the pmap is a cache hierarchy's
// bottom layer).
func BenchmarkAblationTLBSize(b *testing.B) {
	for _, tlbSize := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("tlb=%d", tlbSize), func(b *testing.B) {
			machine := hw.NewMachine(hw.Config{
				Cost:       vax.Cost8650(),
				HWPageSize: vax.HWPageSize,
				PhysFrames: 32768,
				CPUs:       1,
				TLBSize:    tlbSize,
			})
			mod := vax.New(machine, pmap.ShootImmediate)
			k := core.MustNewKernel(core.Config{Machine: machine, Module: mod, PageSize: 4096})
			cpu := machine.CPU(0)
			m := k.NewMap()
			defer m.Destroy()
			m.Pmap().Activate(cpu)
			const pages = 256
			addr, _ := m.Allocate(0, pages*4096, true)
			// Warm everything once.
			for p := 0; p < pages; p++ {
				if err := k.Touch(cpu, m, addr+vmtypes.VA(p*4096), true); err != nil {
					b.Fatal(err)
				}
			}
			t0 := machine.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := 0; p < pages; p++ {
					if err := k.Touch(cpu, m, addr+vmtypes.VA(p*4096), false); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(machine.Clock.Now()-t0)/float64(b.N)/1e3, "vus/op")
			st := cpu.TLB.Stats()
			b.ReportMetric(float64(st.Misses)/float64(st.Hits+st.Misses)*100, "tlb-miss-%")
		})
	}
}
