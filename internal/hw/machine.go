// Package hw simulates the hardware substrate the Mach VM reproduction runs
// on: physical memory holding real bytes, a virtual clock driven by a
// per-architecture cost model, CPUs with private translation lookaside
// buffers, and inter-processor interrupts.
//
// The paper's machine-independent claim is about software structure, so the
// substrate's job is to recreate the *pressures* each 1987 machine put on
// the pmap layer — TLBs that go stale, page tables that cost memory, a
// physical address space with holes — rather than to emulate instruction
// sets. See DESIGN.md §2 for the substitution argument.
package hw

import (
	"fmt"
	"sync/atomic"

	"machvm/internal/vmtypes"
)

// Machine bundles the simulated hardware: cost model, virtual clock,
// physical memory and CPUs.
type Machine struct {
	Cost  CostModel
	Clock *Clock
	Mem   *PhysMem

	cpus []*CPU

	ipisSent atomic.Uint64

	// chargeHook, when set, observes Machine.Charge and ChargeKB calls
	// after the clock advances. The trace recorder uses it to capture
	// driver-level charges — simulated compute time billed straight to
	// the machine — as replayable events. CPU.Charge is deliberately not
	// hooked: the hardware charges it carries (TLB probes, table walks)
	// are made while servicing ops that are themselves recorded.
	chargeHook atomic.Pointer[func(ns int64)]
}

// Config describes a machine to construct.
type Config struct {
	// Cost is the architecture cost model.
	Cost CostModel
	// HWPageSize is the hardware page size in bytes (power of two).
	HWPageSize int
	// PhysFrames is the number of hardware page frames.
	PhysFrames int
	// Holes lists unpopulated frame ranges (e.g. SUN 3 display memory).
	Holes []FrameRange
	// CPUs is the processor count (>= 1).
	CPUs int
	// TLBSize is the per-CPU TLB capacity in entries.
	TLBSize int
}

// NewMachine constructs a machine from a configuration.
func NewMachine(cfg Config) *Machine {
	if cfg.CPUs <= 0 {
		cfg.CPUs = 1
	}
	if cfg.TLBSize <= 0 {
		cfg.TLBSize = 64
	}
	m := &Machine{
		Cost:  cfg.Cost,
		Clock: &Clock{},
		Mem:   NewPhysMem(cfg.HWPageSize, cfg.PhysFrames, cfg.Holes...),
	}
	for i := 0; i < cfg.CPUs; i++ {
		m.cpus = append(m.cpus, &CPU{
			ID:      i,
			TLB:     NewTLB(cfg.TLBSize),
			machine: m,
		})
	}
	return m
}

// CPUs returns the machine's processors.
func (m *Machine) CPUs() []*CPU { return m.cpus }

// CPU returns processor i.
func (m *Machine) CPU(i int) *CPU {
	if i < 0 || i >= len(m.cpus) {
		panic(fmt.Sprintf("hw: no CPU %d on a %d-CPU machine", i, len(m.cpus)))
	}
	return m.cpus[i]
}

// NumCPUs returns the processor count.
func (m *Machine) NumCPUs() int { return len(m.cpus) }

// Charge advances the virtual clock by d nanoseconds.
func (m *Machine) Charge(d int64) {
	m.Clock.Advance(d)
	m.noteCharge(d)
}

// SetChargeHook installs (nil removes) the observer for direct charges.
func (m *Machine) SetChargeHook(h func(ns int64)) {
	if h == nil {
		m.chargeHook.Store(nil)
		return
	}
	m.chargeHook.Store(&h)
}

func (m *Machine) noteCharge(d int64) {
	if d == 0 {
		return
	}
	if h := m.chargeHook.Load(); h != nil {
		(*h)(d)
	}
}

// chargeKBAmount converts a per-kilobyte rate applied to n bytes into a
// charge, rounding up so that any nonzero transfer costs at least one
// proportional unit (a 512-byte pager read at 1000 ns/KB charges 500 ns,
// a 1-byte tail still charges 1 ns — never silently free).
func chargeKBAmount(perKB int64, bytes int) int64 {
	if perKB <= 0 || bytes <= 0 {
		return 0
	}
	return (perKB*int64(bytes) + 1023) / 1024
}

// ChargeKB advances the clock by a per-kilobyte rate applied to n bytes,
// rounding up so sub-1KB transfers are never free.
func (m *Machine) ChargeKB(perKB int64, bytes int) {
	m.Charge(chargeKBAmount(perKB, bytes))
}

// FlushAllCharges does nothing: charges reach the clock when they are
// incurred. It exists only because bench/world.go, bench/w_paper.go and
// bench/tracer.go call it and bench/ is frozen outside a benchmark PR; the
// next benchmark PR deletes those calls and this method.
func (m *Machine) FlushAllCharges() {}

// IPI interrupts the target CPU and runs fn on it, charging the sender's
// IPI cost. It is how a mapping change is "propagated at all costs"
// (strategy 1 in §5.2).
func (m *Machine) IPI(target *CPU, fn func(*CPU)) {
	m.Charge(m.Cost.IPI)
	m.ipisSent.Add(1)
	target.interrupt(fn)
}

// IPIsSent returns the total IPIs sent on this machine.
func (m *Machine) IPIsSent() uint64 { return m.ipisSent.Load() }

// TickAll delivers a timer interrupt to every CPU, draining their deferred
// flush queues (strategy 2 in §5.2).
func (m *Machine) TickAll() {
	for _, c := range m.cpus {
		c.Tick()
	}
}

// ZeroFrame zero-fills a frame, charging the zero-fill rate.
func (m *Machine) ZeroFrame(pfn vmtypes.PFN) {
	m.ChargeKB(m.Cost.ZeroPerKB, m.Mem.PageSize())
	m.Mem.Zero(pfn)
}

// CopyFrame copies a frame, charging the copy rate.
func (m *Machine) CopyFrame(src, dst vmtypes.PFN) {
	m.ChargeKB(m.Cost.CopyPerKB, m.Mem.PageSize())
	m.Mem.Copy(src, dst)
}
