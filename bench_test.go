package machvm_test

// The benchmark harness regenerates the paper's evaluation:
//
//	Table 7-1  — BenchmarkTable71ZeroFill, BenchmarkTable71Fork,
//	             BenchmarkTable71ReadBig, BenchmarkTable71ReadSmall
//	Table 7-2  — BenchmarkTable72Programs, BenchmarkTable72Kernel,
//	             BenchmarkTable72SunCompile
//	§5.1 RT    — BenchmarkRTAliasFaults
//	§5.1 SUN 3 — BenchmarkSun3ContextSteal
//	§5.2       — BenchmarkTLBShootdown
//
// Each benchmark reports the *virtual* time of the operation on the
// simulated machine via ReportMetric (vms/op = virtual milliseconds), next
// to Go's real ns/op for the simulation itself. cmd/benchtables prints the
// same data as paper-style tables.

import (
	"fmt"
	"testing"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/rtpc"
	"machvm/internal/pmap/sun3"
	"machvm/internal/task"
	"machvm/internal/vmtypes"
	"machvm/internal/workload"
)

// table71Archs are the machines of Table 7-1's zero-fill and fork rows.
var table71Archs = []workload.Arch{workload.ArchRTPC, workload.ArchUVAX2, workload.ArchSun3}

// machWorld and unixWorld boot one side of the comparison, failing the
// benchmark on a construction error.
func machWorld(tb testing.TB, a workload.Arch, opts ...workload.Option) *workload.MachWorld {
	tb.Helper()
	w, err := workload.BuildMachWorld(a, workload.NewConfig(opts...))
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

func unixWorld(tb testing.TB, a workload.Arch, opts ...workload.Option) *workload.UnixWorld {
	tb.Helper()
	u, err := workload.BuildUnixWorld(a, workload.NewConfig(opts...))
	if err != nil {
		tb.Fatal(err)
	}
	return u
}

func reportVirtual(b *testing.B, totalVirtualNS int64, ops int) {
	b.Helper()
	b.ReportMetric(float64(totalVirtualNS)/float64(ops)/1e6, "vms/op")
}

func BenchmarkTable71ZeroFill(b *testing.B) {
	for _, arch := range table71Archs {
		b.Run("Mach/"+arch.String(), func(b *testing.B) {
			w := machWorld(b, arch, workload.WithMemoryMB(8))
			b.ResetTimer()
			var virt int64
			for i := 0; i < b.N; i++ {
				v, err := workload.MachZeroFill(w, 1024, 1)
				if err != nil {
					b.Fatal(err)
				}
				virt += v
			}
			reportVirtual(b, virt, b.N)
		})
		b.Run("UNIX/"+arch.String(), func(b *testing.B) {
			u := unixWorld(b, arch, workload.WithMemoryMB(8))
			b.ResetTimer()
			var virt int64
			for i := 0; i < b.N; i++ {
				v, err := workload.UnixZeroFill(u, 1024, 1)
				if err != nil {
					b.Fatal(err)
				}
				virt += v
			}
			reportVirtual(b, virt, b.N)
		})
	}
}

func BenchmarkTable71Fork(b *testing.B) {
	for _, arch := range table71Archs {
		b.Run("Mach/"+arch.String(), func(b *testing.B) {
			w := machWorld(b, arch, workload.WithMemoryMB(8))
			b.ResetTimer()
			var virt int64
			for i := 0; i < b.N; i++ {
				v, err := workload.MachFork(w, 256<<10, 1)
				if err != nil {
					b.Fatal(err)
				}
				virt += v
			}
			reportVirtual(b, virt, b.N)
		})
		b.Run("UNIX/"+arch.String(), func(b *testing.B) {
			u := unixWorld(b, arch, workload.WithMemoryMB(8))
			b.ResetTimer()
			var virt int64
			for i := 0; i < b.N; i++ {
				v, err := workload.UnixFork(u, 256<<10, 1)
				if err != nil {
					b.Fatal(err)
				}
				virt += v
			}
			reportVirtual(b, virt, b.N)
		})
	}
}

func benchFileRead(b *testing.B, size int) {
	b.Run("Mach/VAX 8200", func(b *testing.B) {
		var first, second int64
		for i := 0; i < b.N; i++ {
			w := machWorld(b, workload.ArchVAX8200, workload.WithMemoryMB(16), workload.WithDiskMB(128))
			r, err := workload.MachFileRead(w, size)
			if err != nil {
				b.Fatal(err)
			}
			first += r.First
			second += r.Second
		}
		b.ReportMetric(float64(first)/float64(b.N)/1e9, "first-vs/op")
		b.ReportMetric(float64(second)/float64(b.N)/1e9, "second-vs/op")
	})
	b.Run("UNIX/VAX 8200", func(b *testing.B) {
		var first, second int64
		for i := 0; i < b.N; i++ {
			u := unixWorld(b, workload.ArchVAX8200, workload.WithMemoryMB(16), workload.WithDiskMB(128), workload.WithNBufs(400))
			r, err := workload.UnixFileRead(u, size)
			if err != nil {
				b.Fatal(err)
			}
			first += r.First
			second += r.Second
		}
		b.ReportMetric(float64(first)/float64(b.N)/1e9, "first-vs/op")
		b.ReportMetric(float64(second)/float64(b.N)/1e9, "second-vs/op")
	})
}

func BenchmarkTable71ReadBig(b *testing.B)   { benchFileRead(b, 2500<<10) }
func BenchmarkTable71ReadSmall(b *testing.B) { benchFileRead(b, 50<<10) }

func benchCompile(b *testing.B, arch workload.Arch, cfg workload.CompileConfig, nbufs int) {
	b.Run(fmt.Sprintf("Mach/%s/%dbufs", arch, nbufs), func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			w := machWorld(b, arch, workload.WithMemoryMB(16), workload.WithDiskMB(256))
			v, err := workload.MachCompile(w, cfg)
			if err != nil {
				b.Fatal(err)
			}
			virt += v
		}
		b.ReportMetric(float64(virt)/float64(b.N)/1e9, "vs/op")
	})
	b.Run(fmt.Sprintf("UNIX/%s/%dbufs", arch, nbufs), func(b *testing.B) {
		var virt int64
		for i := 0; i < b.N; i++ {
			u := unixWorld(b, arch, workload.WithMemoryMB(16), workload.WithDiskMB(256), workload.WithNBufs(nbufs))
			v, err := workload.UnixCompile(u, cfg)
			if err != nil {
				b.Fatal(err)
			}
			virt += v
		}
		b.ReportMetric(float64(virt)/float64(b.N)/1e9, "vs/op")
	})
}

func BenchmarkTable72Programs(b *testing.B) {
	cfg := workload.ThirteenPrograms()
	benchCompile(b, workload.ArchVAX8650, cfg, 400)
	benchCompile(b, workload.ArchVAX8650, cfg, 64) // generic configuration
}

func BenchmarkTable72Kernel(b *testing.B) {
	if testing.Short() {
		b.Skip("kernel build is heavy")
	}
	cfg := workload.KernelBuild()
	benchCompile(b, workload.ArchVAX8650, cfg, 400)
	benchCompile(b, workload.ArchVAX8650, cfg, 64)
}

func BenchmarkTable72SunCompile(b *testing.B) {
	benchCompile(b, workload.ArchSun3, workload.ForkTestProgram(), 400)
}

// BenchmarkRTAliasFaults measures §5.1's RT PC behaviour: two tasks
// sharing a page read/write alternate accesses; every access by the other
// task evicts the single inverted-table mapping and refaults.
func BenchmarkRTAliasFaults(b *testing.B) {
	w := machWorld(b, workload.ArchRTPC, workload.WithMemoryMB(8), workload.WithCPUs(2))
	k := w.Kernel
	parent := task.New(k, "a")
	defer parent.Destroy()
	thA := parent.SpawnThread(w.Machine.CPU(0))
	addr, err := parent.Map.Allocate(0, 8192, true)
	if err != nil {
		b.Fatal(err)
	}
	if err := parent.Map.SetInherit(addr, 8192, vmtypes.InheritShared); err != nil {
		b.Fatal(err)
	}
	if err := thA.Write(addr, []byte{1}); err != nil {
		b.Fatal(err)
	}
	child := parent.Fork("b")
	defer child.Destroy()
	thB := child.SpawnThread(w.Machine.CPU(1))

	mod := w.Mod.(*rtpc.Module)
	start := mod.Stats().AliasReplaces.Load()
	t0 := w.Machine.Clock.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := thA.Touch(addr, true); err != nil {
			b.Fatal(err)
		}
		if err := thB.Touch(addr, true); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	replaces := mod.Stats().AliasReplaces.Load() - start
	b.ReportMetric(float64(replaces)/float64(b.N), "alias-replaces/op")
	b.ReportMetric(float64(w.Machine.Clock.Now()-t0)/float64(b.N)/1e3, "vus/op")
}

// BenchmarkSun3ContextSteal measures §5.1's SUN 3 behaviour: N tasks
// round-robin on one CPU; beyond 8 they compete for contexts and pay
// refault storms.
func BenchmarkSun3ContextSteal(b *testing.B) {
	for _, n := range []int{4, 8, 12, 16} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			w := machWorld(b, workload.ArchSun3, workload.WithMemoryMB(16))
			k := w.Kernel
			cpu := w.Machine.CPU(0)
			mod := w.Mod.(*sun3.Module)

			tasks := make([]*task.Task, n)
			threads := make([]*task.Thread, n)
			addrs := make([]vmtypes.VA, n)
			for i := range tasks {
				tasks[i] = task.New(k, "t")
				threads[i] = tasks[i].SpawnThread(cpu)
				addrs[i], _ = tasks[i].Map.Allocate(0, 64<<10, true)
				if err := threads[i].Write(addrs[i], make([]byte, 64<<10)); err != nil {
					b.Fatal(err)
				}
			}
			steals0 := mod.ContextSteals()
			faults0 := k.Stats().Faults.Load()
			t0 := w.Machine.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range tasks {
					tasks[j].Map.Pmap().Activate(cpu)
					if err := threads[j].Touch(addrs[j], false); err != nil {
						b.Fatal(err)
					}
					if err := threads[j].Touch(addrs[j]+32<<10, false); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(mod.ContextSteals()-steals0)/float64(b.N), "steals/op")
			b.ReportMetric(float64(k.Stats().Faults.Load()-faults0)/float64(b.N), "refaults/op")
			b.ReportMetric(float64(w.Machine.Clock.Now()-t0)/float64(b.N)/1e3, "vus/op")
			for _, tk := range tasks {
				tk.Destroy()
			}
		})
	}
}

// BenchmarkTLBShootdown compares §5.2's three consistency strategies under
// a protection-change storm on a 4-CPU machine.
func BenchmarkTLBShootdown(b *testing.B) {
	for _, strat := range []pmap.Strategy{pmap.ShootImmediate, pmap.ShootDeferred, pmap.ShootLazy} {
		b.Run(strat.String(), func(b *testing.B) {
			w := machWorld(b, workload.ArchNS32082, workload.WithMemoryMB(16), workload.WithCPUs(4), workload.WithStrategy(strat))
			k := w.Kernel
			tk := task.New(k, "shared")
			defer tk.Destroy()
			threads := make([]*task.Thread, w.Machine.NumCPUs())
			for i := range threads {
				threads[i] = tk.SpawnThread(w.Machine.CPU(i))
			}
			const size = 256 << 10
			addr, err := tk.Map.Allocate(0, size, true)
			if err != nil {
				b.Fatal(err)
			}
			// Warm all CPUs' TLBs.
			buf := make([]byte, size)
			for _, th := range threads {
				if err := th.Write(addr, buf); err != nil {
					b.Fatal(err)
				}
			}
			ipis0 := w.Machine.IPIsSent()
			t0 := w.Machine.Clock.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tk.Map.Protect(addr, size, false, vmtypes.ProtRead); err != nil {
					b.Fatal(err)
				}
				if err := tk.Map.Protect(addr, size, false, vmtypes.ProtDefault); err != nil {
					b.Fatal(err)
				}
				// Everybody touches again (refault under lazy).
				for _, th := range threads {
					if err := th.Touch(addr, true); err != nil {
						b.Fatal(err)
					}
				}
				w.Machine.TickAll()
			}
			b.StopTimer()
			b.ReportMetric(float64(w.Machine.IPIsSent()-ipis0)/float64(b.N), "ipis/op")
			b.ReportMetric(float64(w.Machine.Clock.Now()-t0)/float64(b.N)/1e3, "vus/op")
		})
	}
}

// BenchmarkHW exercises the raw simulation substrate for -benchmem
// visibility into the simulator's own cost.
func BenchmarkHW(b *testing.B) {
	b.Run("TLBLookup", func(b *testing.B) {
		tlb := hw.NewTLB(64)
		tlb.Insert(hw.TLBKey{Space: 1, VPN: 1}, hw.TLBEntry{PFN: 1, Prot: vmtypes.ProtDefault})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tlb.Lookup(hw.TLBKey{Space: 1, VPN: 1})
		}
	})
	b.Run("Fault", func(b *testing.B) {
		w := machWorld(b, workload.ArchVAX8650, workload.WithMemoryMB(32))
		k := w.Kernel
		cpu := w.Machine.CPU(0)
		m := k.NewMap()
		defer m.Destroy()
		m.Pmap().Activate(cpu)
		addr, _ := m.Allocate(0, uint64(b.N+1)*k.PageSize(), true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			va := addr + vmtypes.VA(uint64(i)*k.PageSize())
			if err := k.Touch(cpu, m, va, true); err != nil {
				b.Fatal(err)
			}
			if i%1024 == 1023 {
				b.StopTimer()
				// Recycle memory so the bench scales with b.N.
				_ = m.Deallocate(addr, uint64(b.N+1)*k.PageSize())
				addr, _ = m.Allocate(0, uint64(b.N+1)*k.PageSize(), true)
				b.StartTimer()
			}
		}
	})
}
