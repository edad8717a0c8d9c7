package hw

import (
	"sync"
	"sync/atomic"
)

// CPU is one simulated processor. Each CPU owns a private TLB — the paper's
// central multiprocessor difficulty is that none of the machines running
// Mach could reference or modify a remote CPU's TLB (§5.2), so all remote
// invalidation goes through IPIs or deferred timer-tick flushes.
type CPU struct {
	ID  int
	TLB *TLB

	machine *Machine

	mu       sync.Mutex
	deferred []func(*CPU)

	ipisReceived atomic.Uint64
	ticksHandled atomic.Uint64
	deferredPeak int
}

// Machine returns the machine this CPU belongs to.
func (c *CPU) Machine() *Machine { return c.machine }

// Charge advances the virtual clock by d nanoseconds of hardware cost
// incurred on this CPU. Unlike Machine.Charge it does not fire the charge
// hook. Negative and zero charges are ignored.
func (c *CPU) Charge(d int64) { c.machine.Clock.Advance(d) }

// ChargeKB charges a per-kilobyte rate applied to n bytes, rounded up
// like Machine.ChargeKB.
func (c *CPU) ChargeKB(perKB int64, bytes int) {
	c.Charge(chargeKBAmount(perKB, bytes))
}

// IPIsReceived returns how many inter-processor interrupts this CPU has
// handled.
func (c *CPU) IPIsReceived() uint64 { return c.ipisReceived.Load() }

// TicksHandled returns how many timer ticks this CPU has processed.
func (c *CPU) TicksHandled() uint64 { return c.ticksHandled.Load() }

// Defer queues work to run on this CPU at its next timer tick. This is the
// substrate for the paper's strategy (2): "postpone use of a changed
// mapping until all CPUs have taken a timer interrupt (and had a chance to
// flush)".
func (c *CPU) Defer(fn func(*CPU)) {
	c.mu.Lock()
	c.deferred = append(c.deferred, fn)
	if len(c.deferred) > c.deferredPeak {
		c.deferredPeak = len(c.deferred)
	}
	c.mu.Unlock()
}

// DeferredLen returns the number of actions awaiting the next tick.
func (c *CPU) DeferredLen() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.deferred)
}

// Tick simulates a timer interrupt on this CPU: it runs and clears the
// deferred actions.
func (c *CPU) Tick() {
	c.mu.Lock()
	work := c.deferred
	c.deferred = nil
	c.mu.Unlock()
	c.ticksHandled.Add(1)
	for _, fn := range work {
		fn(c)
	}
}

// interrupt delivers an IPI: the handler runs "on" this CPU immediately.
func (c *CPU) interrupt(fn func(*CPU)) {
	c.ipisReceived.Add(1)
	fn(c)
}
