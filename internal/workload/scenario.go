package workload

// The scenario API: one way to build and run every world. A Scenario
// describes an experiment independent of the machine it runs on;
// Build(arch) boots the world (reporting construction errors instead of
// panicking) and returns a World that can Run under a context and render
// a typed Report. Functional options are the only place fault injection,
// tiered paging and multi-tenancy compose with world construction.

import (
	"context"
	"fmt"

	"machvm/internal/baseline"
	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/measure"
	"machvm/internal/pager"
	"machvm/internal/pager/ztier"
	"machvm/internal/pmap"
	"machvm/internal/unixfs"
)

// Config is the resolved world configuration. Build it with NewConfig
// and functional options; the zero value of each field means "default".
type Config struct {
	// MemoryMB is physical memory size (default 8).
	MemoryMB int
	// CPUs is the processor count (default 1).
	CPUs int
	// DiskMB sizes the simulated disk (default 64).
	DiskMB int
	// NBufs is the baseline buffer-cache size (default 400, the paper's
	// explicitly limited configuration).
	NBufs int
	// ObjectCacheSize bounds Mach's object cache (default 4096).
	ObjectCacheSize int
	// Strategy selects TLB consistency (default immediate).
	Strategy pmap.Strategy
	// Pager bounds every kernel→pager conversation; the zero value
	// selects core.DefaultPagerPolicy.
	Pager core.PagerPolicy
	// Injector, when set, wraps the default pager stack (outermost, so
	// injected faults are what the kernel observes at the boundary).
	Injector func(core.Pager) core.Pager
	// TierBudget, when positive, interposes a compressed in-memory tier
	// of that many bytes in front of the swap pager.
	TierBudget int64
	// Baseline selects the 4.3bsd-style comparison system instead of the
	// Mach stack, for scenarios that support both sides.
	Baseline bool
}

// Option adjusts a Config.
type Option func(*Config)

// NewConfig resolves options over the defaults.
func NewConfig(opts ...Option) Config {
	cfg := Config{
		MemoryMB:        8,
		CPUs:            1,
		DiskMB:          64,
		NBufs:           400,
		ObjectCacheSize: 4096,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// WithMemoryMB sets physical memory size.
func WithMemoryMB(mb int) Option { return func(c *Config) { c.MemoryMB = mb } }

// WithCPUs sets the processor count.
func WithCPUs(n int) Option { return func(c *Config) { c.CPUs = n } }

// WithDiskMB sizes the simulated disk.
func WithDiskMB(mb int) Option { return func(c *Config) { c.DiskMB = mb } }

// WithNBufs sets the baseline buffer-cache size.
func WithNBufs(n int) Option { return func(c *Config) { c.NBufs = n } }

// WithObjectCache bounds Mach's object cache.
func WithObjectCache(n int) Option { return func(c *Config) { c.ObjectCacheSize = n } }

// WithStrategy selects the TLB consistency strategy.
func WithStrategy(s pmap.Strategy) Option { return func(c *Config) { c.Strategy = s } }

// WithPagerPolicy bounds kernel→pager conversations (deadline, retries,
// backoff).
func WithPagerPolicy(p core.PagerPolicy) Option { return func(c *Config) { c.Pager = p } }

// WithInjector wraps the world's default pager stack — outermost, so the
// kernel sees the injected behavior at the pager boundary. Compose fault
// injectors here (e.g. pager.NewFlakyPager).
func WithInjector(wrap func(core.Pager) core.Pager) Option {
	return func(c *Config) { c.Injector = wrap }
}

// WithTiering interposes a compressed in-memory tier of budget bytes in
// front of the swap pager.
func WithTiering(budget int64) Option { return func(c *Config) { c.TierBudget = budget } }

// WithBaseline selects the 4.3bsd-style comparison system.
func WithBaseline() Option { return func(c *Config) { c.Baseline = true } }

// Report is the typed result of one World run.
type Report struct {
	// Arch names the machine the world ran on.
	Arch string
	// VirtualNS is the virtual time the driven portion consumed.
	VirtualNS int64
	// Ops counts the scenario's unit operations (reps, jobs, requests).
	Ops int
	// Stats is the kernel stats snapshot (zero for baseline worlds).
	Stats core.StatsSnapshot
	// Aux carries scenario-specific numbers (e.g. file-read first/second
	// pass) keyed by short names.
	Aux map[string]int64
	// SLO is the kernel's service-level snapshot (nil for baseline
	// worlds).
	SLO *measure.SLOReport
}

// World is a booted, runnable experiment.
type World interface {
	// Run drives the workload to completion or ctx cancellation.
	Run(ctx context.Context) (Report, error)
	// Kernel exposes the Mach kernel, nil for baseline worlds.
	Kernel() *core.Kernel
}

// Scenario builds a World for an architecture.
type Scenario interface {
	Build(a Arch) (World, error)
}

// ScenarioFunc adapts a function to the Scenario interface.
type ScenarioFunc func(a Arch) (World, error)

// Build implements Scenario.
func (f ScenarioFunc) Build(a Arch) (World, error) { return f(a) }

// specForErr is SpecFor with an error path instead of a panic, so
// Scenario.Build can report a bad architecture.
func specForErr(a Arch) (Spec, error) {
	if a < ArchUVAX2 || a > ArchTLBOnly {
		return Spec{}, fmt.Errorf("workload: unknown architecture %d", int(a))
	}
	return SpecFor(a), nil
}

// bootMachine builds the simulated hardware shared by both sides.
func bootMachine(spec Spec, cfg Config) *hw.Machine {
	frames := cfg.MemoryMB << 20 / spec.HWPageSize
	var holes []hw.FrameRange
	if spec.Holes != nil {
		holes = spec.Holes(frames)
	}
	return hw.NewMachine(hw.Config{
		Cost:       spec.Cost,
		HWPageSize: spec.HWPageSize,
		PhysFrames: frames,
		Holes:      holes,
		CPUs:       cfg.CPUs,
		TLBSize:    64,
	})
}

// BuildMachWorld boots Mach on the architecture with the resolved
// configuration, applying tiering and fault injection to the swap-pager
// stack: swap ← compressed tier (WithTiering) ← injector (WithInjector,
// outermost).
func BuildMachWorld(a Arch, cfg Config) (*MachWorld, error) {
	spec, err := specForErr(a)
	if err != nil {
		return nil, err
	}
	machine := bootMachine(spec, cfg)
	mod := spec.NewModule(machine, cfg.Strategy)
	k, err := core.NewKernel(core.Config{
		Machine:         machine,
		Module:          mod,
		PageSize:        spec.MachPageSize,
		ObjectCacheSize: cfg.ObjectCacheSize,
		Pager:           cfg.Pager,
	})
	if err != nil {
		return nil, err
	}
	fs := unixfs.NewFS(unixfs.NewDisk(machine, cfg.DiskMB<<20/unixfs.BlockSize))
	ip := pager.NewInodePager(fs)
	var swap core.Pager = pager.NewSwapPager(fs)
	var tier *ztier.Tier
	if cfg.TierBudget > 0 {
		tier = ztier.New(swap, ztier.Config{
			Budget:   cfg.TierBudget,
			PageSize: uint64(spec.MachPageSize),
			Machine:  machine,
			Stats:    k.Stats(),
		})
		swap = tier
	}
	if cfg.Injector != nil {
		swap = cfg.Injector(swap)
	}
	k.SetSwapPager(swap)
	return &MachWorld{
		Spec:    spec,
		Machine: machine,
		Mod:     mod,
		Kernel:  k,
		FS:      fs,
		Inode:   ip,
		cfg:     cfg,
		tier:    tier,
		objects: make(map[string]*core.Object),
	}, nil
}

// BuildUnixWorld boots the traditional comparison system on identical
// hardware.
func BuildUnixWorld(a Arch, cfg Config) (*UnixWorld, error) {
	spec, err := specForErr(a)
	if err != nil {
		return nil, err
	}
	machine := bootMachine(spec, cfg)
	mod := spec.NewModule(machine, cfg.Strategy)
	fs := unixfs.NewFS(unixfs.NewDisk(machine, cfg.DiskMB<<20/unixfs.BlockSize))
	sys := baseline.New(baseline.Config{
		Machine:  machine,
		Module:   mod,
		Costs:    spec.BaselineCosts,
		FS:       fs,
		NBufs:    cfg.NBufs,
		PageSize: spec.MachPageSize,
	})
	return &UnixWorld{Spec: spec, Machine: machine, Mod: mod, Sys: sys, FS: fs}, nil
}

// MachRun is a booted Mach world plus the driver that runs it. MachWorld
// itself cannot implement World (Kernel is a field there), so scenarios
// return this thin pairing.
type MachRun struct {
	World *MachWorld
	// Drive runs the workload; Run fills in whatever Report fields it
	// leaves zero (Arch, VirtualNS, Stats, SLO).
	Drive func(ctx context.Context, w *MachWorld) (Report, error)
}

// Kernel implements World.
func (r *MachRun) Kernel() *core.Kernel { return r.World.Kernel }

// Run implements World: it invokes the driver, then completes the report
// with the final clock, stats snapshot and SLO snapshot.
func (r *MachRun) Run(ctx context.Context) (Report, error) {
	rep, err := r.Drive(ctx, r.World)
	w := r.World
	if rep.Arch == "" {
		rep.Arch = w.Spec.Arch.String()
	}
	if rep.VirtualNS == 0 {
		rep.VirtualNS = w.Machine.Clock.Now()
	}
	rep.Stats = w.Kernel.Stats().Snapshot()
	if err != nil {
		return rep, err
	}
	if rep.SLO == nil {
		slo := w.Kernel.SLOReport()
		rep.SLO = &slo
	}
	return rep, nil
}

// UnixRun pairs a baseline world with its driver.
type UnixRun struct {
	World *UnixWorld
	Drive func(ctx context.Context, w *UnixWorld) (Report, error)
}

// Kernel implements World; baseline worlds have no Mach kernel.
func (r *UnixRun) Kernel() *core.Kernel { return nil }

// Run implements World.
func (r *UnixRun) Run(ctx context.Context) (Report, error) {
	rep, err := r.Drive(ctx, r.World)
	if rep.Arch == "" {
		rep.Arch = r.World.Spec.Arch.String()
	}
	if rep.VirtualNS == 0 {
		rep.VirtualNS = r.World.Machine.Clock.Now()
	}
	return rep, err
}

// twoSided builds the Mach or baseline side per cfg.Baseline.
type twoSided struct {
	cfg  Config
	mach func(ctx context.Context, w *MachWorld) (Report, error)
	unix func(ctx context.Context, w *UnixWorld) (Report, error)
}

// Build implements Scenario.
func (s twoSided) Build(a Arch) (World, error) {
	if s.cfg.Baseline {
		if s.unix == nil {
			return nil, fmt.Errorf("workload: scenario has no baseline side")
		}
		u, err := BuildUnixWorld(a, s.cfg)
		if err != nil {
			return nil, err
		}
		return &UnixRun{World: u, Drive: s.unix}, nil
	}
	w, err := BuildMachWorld(a, s.cfg)
	if err != nil {
		return nil, err
	}
	return &MachRun{World: w, Drive: s.mach}, nil
}

// ZeroFill is the Table 7-1 zero-fill scenario: vm_allocate + touch +
// vm_deallocate of size bytes, averaged over reps.
func ZeroFill(size uint64, reps int, opts ...Option) Scenario {
	return twoSided{
		cfg: NewConfig(opts...),
		mach: func(_ context.Context, w *MachWorld) (Report, error) {
			ns, err := MachZeroFill(w, size, reps)
			return Report{Ops: reps, Aux: map[string]int64{"ns_per_op": ns}}, err
		},
		unix: func(_ context.Context, u *UnixWorld) (Report, error) {
			ns, err := UnixZeroFill(u, size, reps)
			return Report{Ops: reps, Aux: map[string]int64{"ns_per_op": ns}}, err
		},
	}
}

// Fork is the Table 7-1 fork scenario: fork of a task with size bytes of
// dirty memory, averaged over reps.
func Fork(size uint64, reps int, opts ...Option) Scenario {
	return twoSided{
		cfg: NewConfig(opts...),
		mach: func(_ context.Context, w *MachWorld) (Report, error) {
			ns, err := MachFork(w, size, reps)
			return Report{Ops: reps, Aux: map[string]int64{"ns_per_op": ns}}, err
		},
		unix: func(_ context.Context, u *UnixWorld) (Report, error) {
			ns, err := UnixFork(u, size, reps)
			return Report{Ops: reps, Aux: map[string]int64{"ns_per_op": ns}}, err
		},
	}
}

// Compile is the Table 7-2 compile scenario.
func Compile(build CompileConfig, opts ...Option) Scenario {
	return twoSided{
		cfg: NewConfig(opts...),
		mach: func(_ context.Context, w *MachWorld) (Report, error) {
			ns, err := MachCompile(w, build)
			return Report{Ops: len(build.Jobs), VirtualNS: ns}, err
		},
		unix: func(_ context.Context, u *UnixWorld) (Report, error) {
			ns, err := UnixCompile(u, build)
			return Report{Ops: len(build.Jobs), VirtualNS: ns}, err
		},
	}
}

// Mach adapts a bare Mach driver into a Scenario, for one-off worlds.
func Mach(drive func(ctx context.Context, w *MachWorld) (Report, error), opts ...Option) Scenario {
	return twoSided{cfg: NewConfig(opts...), mach: drive}
}

// Unix adapts a bare baseline driver into a Scenario.
func Unix(drive func(ctx context.Context, w *UnixWorld) (Report, error), opts ...Option) Scenario {
	cfg := NewConfig(opts...)
	cfg.Baseline = true
	return twoSided{cfg: cfg, unix: drive}
}
