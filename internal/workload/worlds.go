// Package workload builds matched pairs of experimental worlds — a Mach
// stack and a 4.3bsd-style baseline on identical simulated hardware — and
// drives the workloads behind the paper's Tables 7-1 and 7-2.
package workload

import (
	"fmt"
	"sync"

	"machvm/internal/baseline"
	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/pager"
	"machvm/internal/pager/ztier"
	"machvm/internal/pmap"
	"machvm/internal/pmap/ns32082"
	"machvm/internal/pmap/rtpc"
	"machvm/internal/pmap/sun3"
	"machvm/internal/pmap/tlbonly"
	"machvm/internal/pmap/vax"
	"machvm/internal/trace"
	"machvm/internal/unixfs"
	"machvm/internal/vmtypes"
)

// Arch selects one of the paper's machines.
type Arch int

// The machines of §1/§7.
const (
	ArchUVAX2 Arch = iota // MicroVAX II
	ArchVAX8200
	ArchVAX8650
	ArchRTPC
	ArchSun3
	ArchNS32082 // Encore MultiMax / Sequent Balance (per CPU)
	ArchTLBOnly // IBM RP3-style
)

// String names the architecture as the paper does.
func (a Arch) String() string {
	switch a {
	case ArchUVAX2:
		return "uVAX II"
	case ArchVAX8200:
		return "VAX 8200"
	case ArchVAX8650:
		return "VAX 8650"
	case ArchRTPC:
		return "RT PC"
	case ArchSun3:
		return "SUN 3/160"
	case ArchNS32082:
		return "MultiMax/Balance"
	case ArchTLBOnly:
		return "RP3 (TLB-only)"
	default:
		return fmt.Sprintf("arch(%d)", int(a))
	}
}

// Spec describes how to boot an architecture.
type Spec struct {
	Arch       Arch
	Cost       hw.CostModel
	HWPageSize int
	// MachPageSize is the boot-time Mach page size used for the paper
	// benchmarks on this machine.
	MachPageSize int
	// BaselineCosts select which traditional system is compared.
	BaselineCosts baseline.Costs
	// NewModule boots the machine-dependent module.
	NewModule func(*hw.Machine, pmap.Strategy) pmap.Module
	// Holes in physical memory (SUN 3 display memory).
	Holes func(totalFrames int) []hw.FrameRange
}

// SpecFor returns the boot spec of an architecture.
func SpecFor(a Arch) Spec {
	switch a {
	case ArchUVAX2:
		return Spec{
			Arch: a, Cost: vax.DefaultCost(),
			HWPageSize: vax.HWPageSize, MachPageSize: 1024,
			BaselineCosts: baseline.BSD43(),
			NewModule:     func(m *hw.Machine, s pmap.Strategy) pmap.Module { return vax.New(m, s) },
		}
	case ArchVAX8200:
		return Spec{
			Arch: a, Cost: vax.Cost8200(),
			HWPageSize: vax.HWPageSize, MachPageSize: 4096,
			BaselineCosts: baseline.BSD43(),
			NewModule:     func(m *hw.Machine, s pmap.Strategy) pmap.Module { return vax.New(m, s) },
		}
	case ArchVAX8650:
		return Spec{
			Arch: a, Cost: vax.Cost8650(),
			HWPageSize: vax.HWPageSize, MachPageSize: 4096,
			BaselineCosts: baseline.BSD43(),
			NewModule:     func(m *hw.Machine, s pmap.Strategy) pmap.Module { return vax.New(m, s) },
		}
	case ArchRTPC:
		return Spec{
			Arch: a, Cost: rtpc.DefaultCost(),
			HWPageSize: rtpc.HWPageSize, MachPageSize: 2048,
			BaselineCosts: baseline.ACIS42(),
			NewModule:     func(m *hw.Machine, s pmap.Strategy) pmap.Module { return rtpc.New(m, s) },
		}
	case ArchSun3:
		return Spec{
			Arch: a, Cost: sun3.DefaultCost(),
			HWPageSize: sun3.HWPageSize, MachPageSize: 8192,
			BaselineCosts: baseline.SunOS32(),
			NewModule:     func(m *hw.Machine, s pmap.Strategy) pmap.Module { return sun3.New(m, s) },
			Holes: func(total int) []hw.FrameRange {
				return []hw.FrameRange{sun3.DisplayHole(total, total/16)}
			},
		}
	case ArchNS32082:
		return Spec{
			Arch: a, Cost: ns32082.DefaultCost(),
			HWPageSize: ns32082.HWPageSize, MachPageSize: 4096,
			BaselineCosts: baseline.BSD43(),
			NewModule:     func(m *hw.Machine, s pmap.Strategy) pmap.Module { return ns32082.New(m, s) },
		}
	case ArchTLBOnly:
		return Spec{
			Arch: a, Cost: tlbonly.DefaultCost(),
			HWPageSize: tlbonly.HWPageSize, MachPageSize: 4096,
			BaselineCosts: baseline.BSD43(),
			NewModule:     func(m *hw.Machine, s pmap.Strategy) pmap.Module { return tlbonly.New(m, s) },
		}
	default:
		panic("workload: unknown architecture")
	}
}

// MachWorld is a booted Mach stack.
type MachWorld struct {
	Spec    Spec
	Machine *hw.Machine
	Mod     pmap.Module
	Kernel  *core.Kernel
	FS      *unixfs.FS
	Inode   *pager.InodePager

	// cfg is the boot configuration, kept so a trace header can describe
	// how to boot an identical world for replay.
	cfg Config

	// tier is the compressed swap tier when WithTiering interposed one;
	// Close stops its writeback worker.
	tier *ztier.Tier

	mu      sync.Mutex
	objects map[string]*core.Object
}

// Close releases background resources (the compressed tier's writeback
// worker, when one was configured). Safe on any world, idempotent.
func (w *MachWorld) Close() {
	if w.tier != nil {
		w.tier.Close()
	}
}

// FileObject returns the (cached) memory object for a file, reviving it
// from the object cache when possible — the Mach read path. Recorded as
// one trace input op: replay re-runs the same cache lookup / inode-pager
// path and must land on the same object ID.
func (w *MachWorld) FileObject(name string) (obj *core.Object, err error) {
	if t := w.Kernel.TraceOp(); t != nil {
		defer func() {
			e := trace.Event{Name: name}
			if obj != nil {
				e.Ret = obj.ID()
			}
			t.End(trace.OpFileObject, e, &err)
		}()
	}
	w.mu.Lock()
	obj = w.objects[name]
	w.mu.Unlock()
	if obj != nil && w.Kernel.LookupCached(obj) {
		return obj, nil
	}
	if obj != nil && obj.Refs() > 0 {
		obj.Reference()
		return obj, nil
	}
	if obj, err = w.Inode.NewFileObject(w.Kernel, name); err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.objects[name] = obj
	w.mu.Unlock()
	return obj, nil
}

// CreateFile creates (or replaces) a file in the simulated filesystem,
// recording one trace input op. Drivers under recording must use this
// instead of FS.Create directly: the filesystem charges disk costs while
// writing, and those charges belong to the file-create op, not to a
// stream of bare driver charges.
func (w *MachWorld) CreateFile(name string, data []byte) error {
	t := w.Kernel.TraceOp()
	_, err := w.FS.Create(name, data)
	if t != nil {
		e := trace.Event{Name: name, Size: uint64(len(data)), Data: trace.FillOf(data)}
		t.End(trace.OpFileCreate, e, &err)
	}
	return err
}

// StartTrace begins recording this world's externally visible events.
// Recording requires the world to be driven deterministically: one
// goroutine, Background contexts (pager flights then run inline), no
// pageout daemon, no wall clock — see DESIGN.md §11.
func (w *MachWorld) StartTrace() *trace.Log {
	l := trace.NewLog()
	w.Kernel.SetTracer(l)
	return l
}

// StopTrace ends recording and packages the complete trace: boot header,
// event stream, final virtual clock and stats snapshot.
func (w *MachWorld) StopTrace() *trace.Trace {
	l := w.Kernel.Tracer()
	w.Kernel.SetTracer(nil)
	t := &trace.Trace{
		Header: trace.Header{
			Arch:        int(w.Spec.Arch),
			MemoryMB:    w.cfg.MemoryMB,
			CPUs:        w.cfg.CPUs,
			DiskMB:      w.cfg.DiskMB,
			ObjectCache: w.cfg.ObjectCacheSize,
			Strategy:    int(w.cfg.Strategy),
			PageSize:    uint64(w.Spec.MachPageSize),
		},
		Clock: w.Machine.Clock.Now(),
		Stats: StatsString(w.Kernel),
	}
	if l != nil {
		t.Events = l.Events()
	}
	return t
}

// StatsString renders the kernel's stats snapshot as one deterministic
// line (struct fields print in declaration order), the form stored in a
// trace footer and compared after replay.
func StatsString(k *core.Kernel) string {
	return fmt.Sprintf("%+v", k.Stats().Snapshot())
}

// ReadFileMach performs the Mach read path: map the file's memory object,
// fault the data through the object cache, copy it out to the caller's
// buffer, unmap. The object (and its pages) stays cached afterwards.
func (w *MachWorld) ReadFileMach(cpu *hw.CPU, m *core.Map, name string, buf []byte) (int, error) {
	k := w.Kernel
	k.Machine().Charge(k.Machine().Cost.Syscall)
	obj, err := w.FileObject(name)
	if err != nil {
		return 0, err
	}
	size := obj.Size()
	addr, err := m.AllocateWithObject(0, size, true, obj, 0,
		vmtypes.ProtRead, vmtypes.ProtAll, vmtypes.InheritCopy, false)
	if err != nil {
		k.ReleaseObjectRef(obj)
		return 0, err
	}
	n := len(buf)
	if uint64(n) > size {
		n = int(size)
	}
	if err := k.AccessBytes(cpu, m, addr, buf[:n], false); err != nil {
		_ = m.Deallocate(addr, size)
		return 0, err
	}
	// copyout to the user buffer.
	k.Machine().ChargeKB(k.Machine().Cost.CopyPerKB, n)
	if err := m.Deallocate(addr, size); err != nil {
		return n, err
	}
	return n, nil
}

// UnixWorld is a booted baseline system.
type UnixWorld struct {
	Spec    Spec
	Machine *hw.Machine
	Mod     pmap.Module
	Sys     *baseline.System
	FS      *unixfs.FS
}
