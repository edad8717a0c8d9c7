// Package machvm is a working reproduction of the Mach virtual memory
// system from Rashid et al., "Machine-Independent Virtual Memory
// Management for Paged Uniprocessor and Multiprocessor Architectures"
// (ASPLOS 1987), built as a Go library over a simulated hardware
// substrate.
//
// It provides the paper's five abstractions — tasks, threads, ports,
// messages and memory objects — on top of the four machine-independent VM
// structures (resident page table, address maps, memory objects with
// shadow chains, and the pmap interface) with five machine-dependent pmap
// modules: VAX, IBM RT PC (inverted page table), SUN 3 (segments and 8
// contexts), NS32082 (Encore MultiMax / Sequent Balance) and an RP3-style
// TLB-only machine.
//
// Quick start:
//
//	sys, err := machvm.New(machvm.VAX, machvm.Options{MemoryMB: 8})
//	if err != nil {
//		log.Fatal(err)
//	}
//	tk := sys.NewTask("init")
//	th := tk.SpawnThread(sys.CPU(0))
//	addr, _ := tk.Map.Allocate(0, 64<<10, true)
//	_ = th.Write(addr, []byte("hello, mach"))
//
// (MustNew panics instead of returning the error, for examples and tests.)
//
// The kernel↔pager boundary is context-aware and error-returning: every
// DataRequest/DataWrite is bounded by a configurable deadline with retries
// (PagerPolicy, Options.Pager), concurrent faults on one page share a
// single pager conversation, and a pager that hangs or fails surfaces
// ErrPagerTimeout or ErrPagerFailed through the fault — or degrades to
// zero-fill or the default pager, per Object.SetPagerFallback.
// Thread.ReadContext/WriteContext let a caller cancel an access stuck
// behind a slow pager.
//
// See DESIGN.md for the architecture and EXPERIMENTS.md for the
// reproduction of the paper's evaluation.
package machvm

import (
	"io"

	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/ipc"
	"machvm/internal/measure"
	"machvm/internal/pager"
	"machvm/internal/pager/netpager"
	"machvm/internal/pager/ztier"
	"machvm/internal/pmap"
	"machvm/internal/replay"
	"machvm/internal/task"
	"machvm/internal/trace"
	"machvm/internal/unixfs"
	"machvm/internal/vmtypes"
	"machvm/internal/workload"
)

// Re-exported primitive types: addresses, protections, inheritance.
type (
	// VA is a virtual address.
	VA = vmtypes.VA
	// PA is a physical address.
	PA = vmtypes.PA
	// PFN is a hardware page frame number.
	PFN = vmtypes.PFN
	// Prot is a protection code (read/write/execute).
	Prot = vmtypes.Prot
	// Inherit is a fork-inheritance attribute.
	Inherit = vmtypes.Inherit
)

// Protection and inheritance values.
const (
	ProtNone    = vmtypes.ProtNone
	ProtRead    = vmtypes.ProtRead
	ProtWrite   = vmtypes.ProtWrite
	ProtExecute = vmtypes.ProtExecute
	ProtDefault = vmtypes.ProtDefault
	ProtAll     = vmtypes.ProtAll

	InheritShared = vmtypes.InheritShared
	InheritCopy   = vmtypes.InheritCopy
	InheritNone   = vmtypes.InheritNone
)

// Re-exported system objects. Their methods are documented in the
// underlying packages; the facade exists so a user of the library needs
// only this import.
type (
	// Kernel is the machine-independent VM layer.
	Kernel = core.Kernel
	// Map is an address map (or sharing map).
	Map = core.Map
	// MapEntry is one address map entry.
	MapEntry = core.MapEntry
	// Object is a memory object.
	Object = core.Object
	// Pager is the kernel-side memory manager interface.
	Pager = core.Pager
	// PagerPolicy bounds every kernel→pager conversation (deadline,
	// retries, backoff).
	PagerPolicy = core.PagerPolicy
	// PagerFallback selects an object's degradation policy on pager
	// failure.
	PagerFallback = core.PagerFallback
	// FlakyPager wraps a Pager with injectable delays, drops, errors and
	// short reads (fault injection for robustness testing).
	FlakyPager = pager.FlakyPager
	// Statistics is the vm_statistics snapshot.
	Statistics = core.Statistics
	// RegionInfo describes one region (vm_regions).
	RegionInfo = core.RegionInfo

	// Task is an execution environment; Thread a unit of CPU use.
	Task = task.Task
	// Thread is the basic unit of CPU utilization.
	Thread = task.Thread

	// Port is a protected message queue; Message a typed message.
	Port = ipc.Port
	// Message is a typed collection of data items.
	Message = ipc.Message
	// Item is one typed message datum.
	Item = ipc.Item
	// OOLRegion is out-of-line message memory.
	OOLRegion = ipc.OOLRegion

	// UserPager is a user-state memory manager (external pager).
	UserPager = pager.UserPager
	// DataRequest is one fault forwarded to a user pager.
	DataRequest = pager.DataRequest
	// InodePager backs memory objects with files.
	InodePager = pager.InodePager

	// Machine is the simulated hardware.
	Machine = hw.Machine
	// CPU is one simulated processor.
	CPU = hw.CPU
	// CostModel is a per-architecture virtual-time cost model.
	CostModel = hw.CostModel

	// FS is the simulated filesystem; Inode one file.
	FS = unixfs.FS
	// Inode is one simulated file.
	Inode = unixfs.Inode

	// PmapModule is the machine-dependent module interface (Table 3-3).
	PmapModule = pmap.Module
	// Pmap is one task's physical map.
	Pmap = pmap.Map

	// CompressedTier is a zswap-style compressed in-memory paging tier
	// interposed in front of a slower backing pager.
	CompressedTier = ztier.Tier
	// CompressedTierConfig tunes a CompressedTier (budget, batch sizes).
	CompressedTierConfig = ztier.Config

	// NetPagerClient is a Pager whose storage lives across a connection:
	// pipelined, tag-matched, many requests in flight at once.
	NetPagerClient = netpager.Client
	// NetPagerBackend is the store a netpager server answers from.
	NetPagerBackend = netpager.Backend
	// NetMemBackend is an in-memory NetPagerBackend (a remote memory
	// server).
	NetMemBackend = netpager.MemBackend

	// Tier is a memory object's placement in the paging hierarchy.
	Tier = core.Tier

	// StatsSnapshot is a plain-struct copy of every kernel counter, taken
	// at one instant by Kernel.Stats().Snapshot().
	StatsSnapshot = core.StatsSnapshot

	// SLOReport is the typed service-level snapshot: fault-latency
	// percentiles from the kernel's virtual-clock histogram, pager
	// timeout rate, invariant-violation count, and sustained fault
	// throughput. Produced by System.SLOReport.
	SLOReport = measure.SLOReport
	// SLOThresholds is the checked-in gate configuration (SLO.json);
	// zero-valued limits are not enforced.
	SLOThresholds = measure.SLOThresholds
	// SLOGateResult is the outcome of SLOThresholds.Evaluate: pass/fail
	// plus one line per violated threshold.
	SLOGateResult = measure.GateResult
	// FaultHistogram is the fixed-bucket log-linear latency histogram
	// underlying the SLO percentiles.
	FaultHistogram = measure.Histogram

	// TraceLog collects trace events while recording is enabled.
	TraceLog = trace.Log
	// Trace is a complete recording: world header, event stream, and final
	// clock/stats for end-state verification. Encode/Decode give it a
	// stable text form; replay it with Replay.
	Trace = trace.Trace
	// TraceEvent is one recorded event.
	TraceEvent = trace.Event
	// ReplayResult reports how a replay compared to its recording.
	ReplayResult = replay.Result
)

// Tier placement values: TierAuto lets refault/pageout behaviour decide,
// TierHot pins an object's pages in the fast tier, TierCold bypasses it.
const (
	TierAuto = core.TierAuto
	TierHot  = core.TierHot
	TierCold = core.TierCold
)

// Arch selects a machine architecture.
type Arch = workload.Arch

// The architectures of the paper.
const (
	// VAX boots a MicroVAX II-class machine (512-byte hardware pages,
	// on-demand linear page tables).
	VAX = workload.ArchUVAX2
	// VAX8200 and VAX8650 are faster VAXes (the paper's file-read and
	// compilation machines).
	VAX8200 = workload.ArchVAX8200
	VAX8650 = workload.ArchVAX8650
	// RTPC boots an IBM RT PC (inverted page table).
	RTPC = workload.ArchRTPC
	// Sun3 boots a SUN 3/160 (segment maps, 8 contexts, display-memory
	// hole in physical memory).
	Sun3 = workload.ArchSun3
	// NS32082 boots an Encore MultiMax / Sequent Balance class machine
	// (16MB VA limit, 32MB PA limit, the read-modify-write fault bug).
	NS32082 = workload.ArchNS32082
	// TLBOnly boots an IBM RP3-style machine with no hardware-defined
	// in-memory mapping structure.
	TLBOnly = workload.ArchTLBOnly
)

// Pager-boundary errors and degradation policies.
var (
	// ErrPagerTimeout wraps errors from pager conversations that
	// exhausted the configured deadline.
	ErrPagerTimeout = core.ErrPagerTimeout
	// ErrPagerFailed wraps errors from pager conversations that kept
	// failing until their retries ran out; the pager's own error stays
	// reachable through errors.Is.
	ErrPagerFailed = core.ErrPagerFailed
	// ErrDataUnavailable is a pager's definitive "no data here" answer.
	ErrDataUnavailable = core.ErrDataUnavailable
	// ErrInjected is the error a FlakyPager returns for injected failures.
	ErrInjected = pager.ErrInjected
)

// Degradation policies for Object.SetPagerFallback.
const (
	// FallbackError surfaces the pager error through the fault (default).
	FallbackError = core.FallbackError
	// FallbackZeroFill zero-fills when the pager fails.
	FallbackZeroFill = core.FallbackZeroFill
	// FallbackSwap falls back to the kernel's default pager.
	FallbackSwap = core.FallbackSwap
)

// NewFlakyPager wraps a Pager with injectable failures.
func NewFlakyPager(inner Pager) *FlakyPager { return pager.NewFlakyPager(inner) }

// DefaultPagerPolicy returns the deadline/retry policy used when
// Options.Pager is zero.
func DefaultPagerPolicy() PagerPolicy { return core.DefaultPagerPolicy() }

// ShootdownStrategy selects the multiprocessor TLB consistency strategy
// (§5.2).
type ShootdownStrategy = pmap.Strategy

// The three strategies of §5.2.
const (
	ShootImmediate = pmap.ShootImmediate
	ShootDeferred  = pmap.ShootDeferred
	ShootLazy      = pmap.ShootLazy
)

// Options configure a System.
type Options struct {
	// MemoryMB is physical memory in megabytes (default 8).
	MemoryMB int
	// CPUs is the processor count (default 1).
	CPUs int
	// DiskMB sizes the simulated disk (default 64).
	DiskMB int
	// Strategy selects TLB consistency (default immediate).
	Strategy ShootdownStrategy
	// ObjectCacheSize bounds the cache of unreferenced persistent
	// objects.
	ObjectCacheSize int
	// Pager bounds every kernel→pager conversation; the zero value
	// selects DefaultPagerPolicy.
	Pager PagerPolicy
}

// System is a booted machine running the Mach VM stack.
type System struct {
	world *workload.MachWorld
}

// New boots a system of the given architecture. It returns an error for
// unknown architectures or unusable options instead of panicking; MustNew
// keeps the panicking convenience.
func New(arch Arch, opts Options) (*System, error) {
	cfg := workload.NewConfig()
	if opts.MemoryMB != 0 {
		cfg.MemoryMB = opts.MemoryMB
	}
	if opts.CPUs != 0 {
		cfg.CPUs = opts.CPUs
	}
	if opts.DiskMB != 0 {
		cfg.DiskMB = opts.DiskMB
	}
	if opts.ObjectCacheSize != 0 {
		cfg.ObjectCacheSize = opts.ObjectCacheSize
	}
	cfg.Strategy = opts.Strategy
	cfg.Pager = opts.Pager
	w, err := workload.BuildMachWorld(arch, cfg)
	if err != nil {
		return nil, err
	}
	return &System{world: w}, nil
}

// MustNew is New, panicking on error.
func MustNew(arch Arch, opts Options) *System {
	s, err := New(arch, opts)
	if err != nil {
		panic(err)
	}
	return s
}

// Arch returns the system's architecture.
func (s *System) Arch() Arch { return s.world.Spec.Arch }

// Kernel returns the machine-independent VM layer.
func (s *System) Kernel() *Kernel { return s.world.Kernel }

// Machine returns the simulated hardware.
func (s *System) Machine() *Machine { return s.world.Machine }

// CPU returns simulated processor i.
func (s *System) CPU(i int) *CPU { return s.world.Machine.CPU(i) }

// FS returns the simulated filesystem.
func (s *System) FS() *FS { return s.world.FS }

// PmapModule returns the machine-dependent module.
func (s *System) PmapModule() PmapModule { return s.world.Mod }

// NewTask creates a task with an empty address space.
func (s *System) NewTask(name string) *Task { return task.New(s.world.Kernel, name) }

// MapFile maps the named file into the task's address space and returns
// the address (a memory-mapped file through the inode pager).
func (s *System) MapFile(t *Task, name string, prot Prot) (VA, uint64, error) {
	obj, err := s.world.FileObject(name)
	if err != nil {
		return 0, 0, err
	}
	size := obj.Size()
	addr, err := t.Map.AllocateWithObject(0, size, true, obj, 0, prot, ProtAll, InheritCopy, false)
	if err != nil {
		s.world.Kernel.ReleaseObjectRef(obj)
		return 0, 0, err
	}
	return addr, size, nil
}

// ReadFile performs the Mach read path (map, fault through the object
// cache, copy out) into buf, returning the byte count.
func (s *System) ReadFile(cpu *CPU, t *Task, name string, buf []byte) (int, error) {
	return s.world.ReadFileMach(cpu, t.Map, name, buf)
}

// NewUserPagerObject creates a memory object of the given size managed by
// the user pager, ready to be mapped with Task.Map.AllocateWithObject.
func (s *System) NewUserPagerObject(up *UserPager, size uint64, name string) *Object {
	_, obj := pager.NewExternalObject(s.world.Kernel, up.Port, size, name)
	return obj
}

// NewUserPager creates a user-state memory manager with a fresh service
// port and a running server loop.
func NewUserPager(name string) *UserPager { return pager.NewUserPager(name) }

// NewCompressedTier builds a compressed in-memory tier in front of
// backing, wired to this system's kernel statistics and cost model.
// Close it when done (per-object state is purged by object Terminate).
func (s *System) NewCompressedTier(backing Pager, budget int64) *CompressedTier {
	k := s.world.Kernel
	return ztier.New(backing, ztier.Config{
		Budget:   budget,
		PageSize: k.PageSize(),
		Stats:    k.Stats(),
		Machine:  s.world.Machine,
	})
}

// EnableCompressedSwap interposes a compressed tier between the kernel
// and its default (swap) pager: anonymous pageouts compress into RAM and
// only spill to swap when the budget overflows — the tiered-paging
// quickstart. Returns the tier for stats inspection and draining.
func (s *System) EnableCompressedSwap(budget int64) *CompressedTier {
	k := s.world.Kernel
	t := s.NewCompressedTier(k.SwapPager(), budget)
	k.SetSwapPager(t)
	return t
}

// NewNetPagerClient attaches a network pager client to conn; the result
// is a Pager any memory object can be backed by. name may be empty.
func NewNetPagerClient(conn io.ReadWriteCloser, name string) *NetPagerClient {
	return netpager.NewClient(conn, name)
}

// ServeNetPager answers pager requests on conn from backend until the
// connection dies; run it in its own goroutine.
func ServeNetPager(conn io.ReadWriteCloser, backend NetPagerBackend) error {
	return netpager.Serve(conn, backend)
}

// NewNetMemBackend builds an in-memory remote store for ServeNetPager.
func NewNetMemBackend(pageSize uint64) *NetMemBackend {
	return netpager.NewMemBackend(pageSize)
}

// Statistics returns the vm_statistics snapshot.
func (s *System) Statistics() Statistics { return s.world.Kernel.VMStatistics() }

// StatsSnapshot copies every kernel counter at one instant. Prefer this
// over repeated Statistics calls when several counters must be read
// consistently (deltas across a workload step, test assertions).
func (s *System) StatsSnapshot() StatsSnapshot { return s.world.Kernel.Stats().Snapshot() }

// SLOReport assembles the typed service-level snapshot: virtual-clock
// fault-latency percentiles (p50/p90/p99/max/mean), the pager timeout
// rate, the live structural-invariant violation count, and sustained
// fault throughput per virtual second. Everything is derived from the
// virtual clock, so reports are host-independent and comparable across
// runs. Gate one against checked-in thresholds with
// ParseSLOThresholds + Evaluate.
func (s *System) SLOReport() SLOReport { return s.world.Kernel.SLOReport() }

// ParseSLOThresholds reads a gate configuration (the SLO.json schema);
// unknown fields are rejected so typos fail loudly.
func ParseSLOThresholds(data []byte) (SLOThresholds, error) {
	return measure.ParseSLOThresholds(data)
}

// CreateFile creates a file in the simulated filesystem. Unlike writing
// through FS() directly, files created here are recorded in an active
// trace, so a recorded run can be replayed on an empty disk.
func (s *System) CreateFile(name string, data []byte) error {
	return s.world.CreateFile(name, data)
}

// StartTrace begins recording every externally visible kernel event
// (operations, faults, pager conversations, pageout decisions) with
// virtual-clock timestamps. Recording assumes the single-threaded
// deterministic driving discipline described in DESIGN.md §11.
func (s *System) StartTrace() *TraceLog { return s.world.StartTrace() }

// StopTrace ends recording and returns the completed trace, including the
// final virtual clock and stats snapshot for replay verification.
func (s *System) StopTrace() *Trace { return s.world.StopTrace() }

// Replay re-executes a recorded trace against a freshly booted system and
// verifies the event stream, final clock and final stats are bit-identical
// to the recording. The returned result reports any divergence; the error
// is non-nil only when the trace itself is unusable (corrupt, truncated).
func Replay(tr *Trace) (*ReplayResult, error) { return replay.Run(tr) }

// DecodeTrace reads a trace in the text form written by Trace.Encode.
func DecodeTrace(r io.Reader) (*Trace, error) { return trace.Decode(r) }

// VirtualTime returns the machine's virtual clock in nanoseconds.
func (s *System) VirtualTime() int64 { return s.world.Machine.Clock.Now() }

// NewPort allocates a message port.
func NewPort(name string) *Port { return ipc.NewPort(name) }

// MoveOut detaches memory into an out-of-line region for a message.
func (s *System) MoveOut(t *Task, addr VA, size uint64, dealloc bool) (*OOLRegion, error) {
	return ipc.MoveOut(s.world.Kernel, t.Map, addr, size, dealloc)
}

// MoveIn maps an out-of-line region into a task.
func (s *System) MoveIn(region *OOLRegion, t *Task) (VA, error) {
	return region.MoveIn(s.world.Kernel, t.Map)
}
