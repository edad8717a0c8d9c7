// benchtables regenerates the paper's evaluation tables on the simulated
// machines and prints them next to the published numbers.
//
// Usage:
//
//	benchtables            # all tables
//	benchtables -table 7-1 # performance of VM operations
//	benchtables -table 7-2 # overall compilation performance
//	benchtables -table mp  # §5 architecture experiments (not a paper table)
//	benchtables -kernel    # include the (slow) full kernel-build rows
//	benchtables -slogate SLO.json # SLO gate + fault/failover matrix
//
// Performance is measured by the repository's one benchmark, go run ./bench.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"machvm/internal/measure"
	"machvm/internal/pmap"
	"machvm/internal/pmap/rtpc"
	"machvm/internal/pmap/sun3"
	"machvm/internal/task"
	"machvm/internal/vmtypes"
	"machvm/internal/workload"
)

var (
	tableFlag   = flag.String("table", "all", "which table to regenerate: 7-1, 7-2, mp, all")
	kernelFlag  = flag.Bool("kernel", false, "include the full kernel-build rows in table 7-2")
	repsFlag    = flag.Int("reps", 20, "repetitions for micro-operations")
	sloGateFlag = flag.String("slogate", "", "gate the server world against this SLO thresholds file, run the fault/failover matrix, exit nonzero on failure")
)

func main() {
	flag.Parse()
	if *sloGateFlag != "" {
		check(runSLOGate(*sloGateFlag))
		return
	}
	switch *tableFlag {
	case "7-1":
		table71()
	case "7-2":
		table72()
	case "mp":
		tableMP()
	case "all":
		table71()
		fmt.Println()
		table72()
		fmt.Println()
		tableMP()
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", *tableFlag)
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// runBoth builds the scenario for both sides of the comparison on the
// same architecture and returns the two reports.
func runBoth(a workload.Arch, mk func(opts ...workload.Option) workload.Scenario, opts ...workload.Option) (mach, unix workload.Report) {
	ctx := context.Background()
	w, err := mk(opts...).Build(a)
	check(err)
	mach, err = w.Run(ctx)
	check(err)
	u, err := mk(append(opts[:len(opts):len(opts)], workload.WithBaseline())...).Build(a)
	check(err)
	unix, err = u.Run(ctx)
	check(err)
	return mach, unix
}

func table71() {
	t := &measure.Table{
		Title: "Table 7-1: Performance of Mach VM Operations (simulated; virtual time)",
		Unit:  measure.Millis,
	}
	type zfRow struct {
		arch  workload.Arch
		paper string
	}
	for _, r := range []zfRow{
		{workload.ArchRTPC, ".45ms / .58ms"},
		{workload.ArchUVAX2, ".58ms / 1.2ms"},
		{workload.ArchSun3, ".23ms / .27ms"},
	} {
		m, u := runBoth(r.arch, func(opts ...workload.Option) workload.Scenario {
			return workload.ZeroFill(1024, *repsFlag, opts...)
		}, workload.WithMemoryMB(8))
		t.Rows = append(t.Rows, measure.Row{
			Label: "zero fill 1K (" + r.arch.String() + ")",
			Mach:  m.Aux["ns_per_op"], Unix: u.Aux["ns_per_op"], Paper: r.paper,
		})
	}
	for _, r := range []zfRow{
		{workload.ArchRTPC, "41ms / 145ms"},
		{workload.ArchUVAX2, "59ms / 220ms"},
		{workload.ArchSun3, "68ms / 89ms"},
	} {
		m, u := runBoth(r.arch, func(opts ...workload.Option) workload.Scenario {
			return workload.Fork(256<<10, 8, opts...)
		}, workload.WithMemoryMB(8))
		t.Rows = append(t.Rows, measure.Row{
			Label: "fork 256K (" + r.arch.String() + ")",
			Mach:  m.Aux["ns_per_op"], Unix: u.Aux["ns_per_op"], Paper: r.paper,
		})
	}
	fmt.Print(t.String())

	// File reads, VAX 8200. Both sizes run in one world per side so the
	// second pass of the big file exercises the warmed object/buffer
	// cache exactly as the paper's experiment did.
	ft := &measure.Table{
		Title: "Table 7-1 (cont.): file reads on VAX 8200 (elapsed, virtual time)",
		Unit:  measure.Seconds,
	}
	type frPair struct{ big, small workload.FileReadResult }
	runReads := func(baseline bool) frPair {
		var p frPair
		opts := []workload.Option{workload.WithMemoryMB(16), workload.WithDiskMB(128), workload.WithNBufs(400)}
		var sc workload.Scenario
		if baseline {
			sc = workload.Unix(func(_ context.Context, u *workload.UnixWorld) (workload.Report, error) {
				var err error
				if p.big, err = workload.UnixFileRead(u, 2500<<10); err != nil {
					return workload.Report{}, err
				}
				p.small, err = workload.UnixFileRead(u, 50<<10)
				return workload.Report{Ops: 4}, err
			}, opts...)
		} else {
			sc = workload.Mach(func(_ context.Context, w *workload.MachWorld) (workload.Report, error) {
				var err error
				if p.big, err = workload.MachFileRead(w, 2500<<10); err != nil {
					return workload.Report{}, err
				}
				p.small, err = workload.MachFileRead(w, 50<<10)
				return workload.Report{Ops: 4}, err
			}, opts...)
		}
		w, err := sc.Build(workload.ArchVAX8200)
		check(err)
		_, err = w.Run(context.Background())
		check(err)
		return p
	}
	mp, up := runReads(false), runReads(true)
	ft.Rows = []measure.Row{
		{Label: "read 2.5M file, first time", Mach: mp.big.First, Unix: up.big.First, Paper: "5.0s / 5.0s"},
		{Label: "read 2.5M file, second time", Mach: mp.big.Second, Unix: up.big.Second, Paper: "1.4s / 5.0s"},
		{Label: "read 50K file, first time", Mach: mp.small.First, Unix: up.small.First, Paper: ".5s / .5s"},
		{Label: "read 50K file, second time", Mach: mp.small.Second, Unix: up.small.Second, Paper: ".1s / .2s"},
	}
	ft.Comment = "The object cache lets Mach's second big read skip the disk; 2.5MB\n" +
		"does not fit the baseline's 400 buffers, so it re-reads everything."
	fmt.Println()
	fmt.Print(ft.String())
}

func table72() {
	t := &measure.Table{
		Title: "Table 7-2: Overall Compilation Performance (simulated; virtual time)",
		Unit:  measure.Seconds,
	}
	run := func(label string, arch workload.Arch, cfg workload.CompileConfig, nbufs int, paper string) {
		m, u := runBoth(arch, func(opts ...workload.Option) workload.Scenario {
			return workload.Compile(cfg, opts...)
		}, workload.WithMemoryMB(16), workload.WithDiskMB(256), workload.WithNBufs(nbufs))
		t.Rows = append(t.Rows, measure.Row{Label: label, Mach: m.VirtualNS, Unix: u.VirtualNS, Paper: paper})
	}
	run("13 programs, 400 buffers", workload.ArchVAX8650, workload.ThirteenPrograms(), 400, "23s / 28s")
	run("13 programs, generic config", workload.ArchVAX8650, workload.ThirteenPrograms(), 64, "19s / 1:16min")
	if *kernelFlag {
		run("Mach kernel, 400 buffers", workload.ArchVAX8650, workload.KernelBuild(), 400, "19:58min / 23:38min")
		run("Mach kernel, generic config", workload.ArchVAX8650, workload.KernelBuild(), 64, "15:50min / 34:10min")
	}
	run("compile fork test (SUN 3/160)", workload.ArchSun3, workload.ForkTestProgram(), 400, "3s / 6s")
	t.Comment = "\"Generic config\" models 4.3bsd's normal (small) buffer allocation;\n" +
		"Mach's behaviour barely moves because the object cache uses free memory."
	fmt.Print(t.String())
}

func tableMP() {
	fmt.Println("§5 architecture experiments (not a paper table; supports §5.1-5.2 claims)")
	fmt.Println("--------------------------------------------------------------------------")

	// RT PC aliasing.
	{
		w, err := workload.BuildMachWorld(workload.ArchRTPC,
			workload.NewConfig(workload.WithMemoryMB(8), workload.WithCPUs(2)))
		check(err)
		k := w.Kernel
		parent := task.New(k, "a")
		thA := parent.SpawnThread(w.Machine.CPU(0))
		addr, err := parent.Map.Allocate(0, 8192, true)
		check(err)
		check(parent.Map.SetInherit(addr, 8192, vmtypes.InheritShared))
		check(thA.Write(addr, []byte{1}))
		child := parent.Fork("b")
		thB := child.SpawnThread(w.Machine.CPU(1))
		mod := w.Mod.(*rtpc.Module)
		before := mod.Stats().AliasReplaces.Load()
		const rounds = 200
		for i := 0; i < rounds; i++ {
			check(thA.Touch(addr, true))
			check(thB.Touch(addr, true))
		}
		fmt.Printf("RT PC page aliasing: %d shared accesses -> %d alias replacements (one mapping per physical page)\n",
			2*rounds, mod.Stats().AliasReplaces.Load()-before)
		child.Destroy()
		parent.Destroy()
	}

	// SUN 3 context competition.
	{
		fmt.Printf("SUN 3 context competition (8 hardware contexts):\n")
		for _, n := range []int{4, 8, 12, 16} {
			w, err := workload.BuildMachWorld(workload.ArchSun3,
				workload.NewConfig(workload.WithMemoryMB(16)))
			check(err)
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
				check(threads[i].Write(addrs[i], make([]byte, 64<<10)))
			}
			steals0 := mod.ContextSteals()
			t0 := w.Machine.Clock.Now()
			const rounds = 20
			for r := 0; r < rounds; r++ {
				for j := range tasks {
					tasks[j].Map.Pmap().Activate(cpu)
					check(threads[j].Touch(addrs[j], false))
				}
			}
			fmt.Printf("  %2d active tasks: %4d context steals, %8.2fms virtual for %d round-robin rounds\n",
				n, mod.ContextSteals()-steals0, float64(w.Machine.Clock.Now()-t0)/1e6, rounds)
			for _, tk := range tasks {
				tk.Destroy()
			}
		}
	}

	// TLB shootdown strategies.
	{
		fmt.Printf("TLB consistency strategies (4-CPU NS32082, protection-change storm):\n")
		for _, strat := range []pmap.Strategy{pmap.ShootImmediate, pmap.ShootDeferred, pmap.ShootLazy} {
			w, err := workload.BuildMachWorld(workload.ArchNS32082,
				workload.NewConfig(workload.WithMemoryMB(16), workload.WithCPUs(4), workload.WithStrategy(strat)))
			check(err)
			k := w.Kernel
			tk := task.New(k, "shared")
			threads := make([]*task.Thread, 4)
			for i := range threads {
				threads[i] = tk.SpawnThread(w.Machine.CPU(i))
			}
			const size = 256 << 10
			addr, err := tk.Map.Allocate(0, size, true)
			check(err)
			buf := make([]byte, size)
			for _, th := range threads {
				check(th.Write(addr, buf))
			}
			ipis0 := w.Machine.IPIsSent()
			t0 := w.Machine.Clock.Now()
			const rounds = 50
			for i := 0; i < rounds; i++ {
				check(tk.Map.Protect(addr, size, false, vmtypes.ProtRead))
				check(tk.Map.Protect(addr, size, false, vmtypes.ProtDefault))
				for _, th := range threads {
					check(th.Touch(addr, true))
				}
				w.Machine.TickAll()
			}
			fmt.Printf("  %-10s %6d IPIs, %10.2fms virtual for %d rounds\n",
				strat, w.Machine.IPIsSent()-ipis0, float64(w.Machine.Clock.Now()-t0)/1e6, rounds)
			tk.Destroy()
		}
	}

	// Virtual-clock speedup of a fixed zero-fill workload over simulated
	// CPUs: speedup(N) = makespan(1 CPU) / makespan(N CPUs).
	{
		fmt.Printf("Virtual-clock zero-fill scaling (2048 faults split over N simulated CPUs; makespan = busiest CPU):\n")
		for _, shared := range []bool{false, true} {
			label := "private maps"
			if shared {
				label = "shared map"
			}
			var base int64
			for _, n := range scalingSimCPUs {
				makespan, err := measureVirtualScaling(n, shared)
				check(err)
				if n == 1 {
					base = makespan
				}
				fmt.Printf("  %-12s %2d CPUs: %10d vns makespan, speedup %5.2fx\n",
					label, n, makespan, float64(base)/float64(makespan))
			}
		}
	}

	// §4's port-size claim: machine-dependent module footprint.
	fmt.Println("pmap module source sizes (cf. §9: \"about the size of a device driver\"):")
	fmt.Println("  see `wc -c internal/pmap/*/[a-z]*.go` — each machine is a single module")
}
