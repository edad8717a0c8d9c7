package pmap

import (
	"sync/atomic"

	"machvm/internal/hw"
)

// Strategy selects how TLB consistency is maintained on a multiprocessor.
// None of the machines that ran Mach supported hardware TLB consistency,
// and none allowed a remote TLB to be referenced or modified, so §5.2
// offers exactly three software answers; all three are employed by Mach in
// different settings and all three are implemented here.
type Strategy int

const (
	// ShootImmediate forcibly interrupts every CPU that may be using a
	// shared portion of an address map so its TLB can be flushed —
	// strategy (1), for changes that are time critical and must be
	// propagated at all costs.
	ShootImmediate Strategy = iota
	// ShootDeferred postpones use of the changed mapping until all CPUs
	// have taken a timer interrupt and had a chance to flush — strategy
	// (2), used by the paging system before pageout I/O. Callers that
	// need the change committed invoke Module.Update (or the machine's
	// TickAll).
	ShootDeferred
	// ShootLazy allows temporary inconsistency — strategy (3),
	// acceptable when the semantics of the operation do not require
	// simultaneity (e.g. a protection change may reach one task's CPU
	// first and another's later). Removals are never lazy: a stale
	// translation to a reused frame would violate memory integrity, so
	// lazy demotes to deferred for removals.
	ShootLazy
)

func (s Strategy) String() string {
	switch s {
	case ShootImmediate:
		return "immediate"
	case ShootDeferred:
		return "deferred"
	case ShootLazy:
		return "lazy"
	default:
		return "unknown"
	}
}

// ShootStats counts consistency traffic.
type ShootStats struct {
	LocalFlushes    atomic.Uint64
	RemoteIPIs      atomic.Uint64
	DeferredFlushes atomic.Uint64
	LazySkips       atomic.Uint64
}

// Shooter implements the three strategies over the hw layer.
type Shooter struct {
	machine  *hw.Machine
	strategy Strategy
	stats    ShootStats
}

// NewShooter creates a shooter for the machine with the given strategy.
func NewShooter(m *hw.Machine, s Strategy) *Shooter {
	return &Shooter{machine: m, strategy: s}
}

// Strategy returns the configured strategy.
func (s *Shooter) Strategy() Strategy { return s.strategy }

// Stats returns the shooter's counters.
func (s *Shooter) Stats() *ShootStats { return &s.stats }

// flushPageOn invalidates one page in cpu's TLB on behalf of the CPU
// performing the operation, charging the flush to the global clock.
func (s *Shooter) flushPageOn(cpu *hw.CPU, key hw.TLBKey) {
	s.machine.Charge(s.machine.Cost.TLBFlushPage)
	cpu.TLB.FlushPage(key)
}

// InvalidatePage propagates the invalidation of (space, vpn) to every CPU
// in active. removal distinguishes mapping removal (never lazy) from
// protection reduction (may be lazy).
func (s *Shooter) InvalidatePage(space uint32, vpn uint64, active []*hw.CPU, removal bool) {
	if len(active) == 0 {
		return
	}
	key := hw.TLBKey{Space: space, VPN: vpn}
	strategy := s.strategy
	if strategy == ShootLazy && removal {
		strategy = ShootDeferred
	}
	// The first active CPU stands for the CPU performing the operation:
	// its flush is local and always immediate.
	s.flushPageOn(active[0], key)
	s.stats.LocalFlushes.Add(1)
	for _, cpu := range active[1:] {
		switch strategy {
		case ShootImmediate:
			s.stats.RemoteIPIs.Add(1)
			s.machine.IPI(cpu, func(c *hw.CPU) {
				c.Charge(c.Machine().Cost.TLBFlushPage)
				c.TLB.FlushPage(key)
			})
		case ShootDeferred:
			s.stats.DeferredFlushes.Add(1)
			cpu.Defer(func(c *hw.CPU) {
				c.Charge(c.Machine().Cost.TLBFlushPage)
				c.TLB.FlushPage(key)
			})
		case ShootLazy:
			s.stats.LazySkips.Add(1)
		}
	}
}

// InvalidateSpace flushes an entire address space from the TLBs of the
// active CPUs (used on pmap destruction and SUN 3 context stealing).
func (s *Shooter) InvalidateSpace(space uint32, active []*hw.CPU) {
	for i, cpu := range active {
		if i == 0 || s.strategy == ShootImmediate {
			if i != 0 {
				s.stats.RemoteIPIs.Add(1)
				s.machine.IPI(cpu, func(c *hw.CPU) {
					c.Charge(c.Machine().Cost.TLBFlushAll)
					c.TLB.FlushSpace(space)
				})
				continue
			}
			s.machine.Charge(s.machine.Cost.TLBFlushAll)
			cpu.TLB.FlushSpace(space)
			s.stats.LocalFlushes.Add(1)
			continue
		}
		s.stats.DeferredFlushes.Add(1)
		cpu.Defer(func(c *hw.CPU) {
			c.Charge(c.Machine().Cost.TLBFlushAll)
			c.TLB.FlushSpace(space)
		})
	}
}

// Update forces every pending deferred flush to completion by delivering a
// timer tick to all CPUs (pmap_update).
func (s *Shooter) Update() {
	s.machine.TickAll()
}

// ModuleStats are the counters every machine-dependent module maintains.
type ModuleStats struct {
	Enters        atomic.Uint64
	Removes       atomic.Uint64
	Protects      atomic.Uint64
	Walks         atomic.Uint64
	WalkMisses    atomic.Uint64
	Collects      atomic.Uint64
	ZeroPages     atomic.Uint64
	CopyPages     atomic.Uint64
	RemoveAlls    atomic.Uint64
	CopyOnWrites  atomic.Uint64
	AliasReplaces atomic.Uint64 // RT PC: one-mapping-per-page evictions
	ContextSteals atomic.Uint64 // SUN 3: >8 active tasks compete
	RangeEnters   atomic.Uint64 // batched EnterRange calls (RangeEnterer modules)
	Promotions    atomic.Uint64 // table granules promoted to superpage status
	Demotions     atomic.Uint64 // superpages broken back to base pages
	TableBytes    atomic.Int64  // current machine-dependent table memory
	TableBytesMax atomic.Int64  // high-water mark
}

// AddTableBytes adjusts the machine-dependent table-memory accounting, a
// signal the paper uses when comparing architectures (the RT PC's inverted
// table "significantly reduced memory requirements for large programs";
// a full VAX user page table would need 8 megabytes).
func (ms *ModuleStats) AddTableBytes(delta int64) {
	v := ms.TableBytes.Add(delta)
	for {
		max := ms.TableBytesMax.Load()
		if v <= max || ms.TableBytesMax.CompareAndSwap(max, v) {
			return
		}
	}
}
