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

	// pendingNS is this CPU's local charge buffer: virtual nanoseconds
	// accumulated since the last flush to the global clock. Batching
	// keeps the cost model from becoming a cross-CPU contention point;
	// the total is unchanged because every buffered nanosecond reaches
	// the clock at a batch boundary (fault return, access return,
	// quantum end).
	pendingNS atomic.Int64
	// chargedNS is the lifetime total charged through this CPU,
	// flushed or not (observability and invariant checks).
	chargedNS atomic.Int64

	mu       sync.Mutex
	deferred []func(*CPU)

	ipisReceived atomic.Uint64
	ticksHandled atomic.Uint64
	deferredPeak int
}

// Machine returns the machine this CPU belongs to.
func (c *CPU) Machine() *Machine { return c.machine }

// Charge accumulates d virtual nanoseconds in this CPU's local buffer
// (or writes through to the global clock when the machine is in
// unbatched mode). Negative and zero charges are ignored.
func (c *CPU) Charge(d int64) {
	if d <= 0 {
		return
	}
	c.chargedNS.Add(d)
	if c.machine.unbatched.Load() {
		c.machine.Clock.Advance(d)
		return
	}
	c.pendingNS.Add(d)
}

// ChargeKB charges a per-kilobyte rate applied to n bytes to this CPU,
// rounded up like Machine.ChargeKB.
func (c *CPU) ChargeKB(perKB int64, bytes int) {
	c.Charge(chargeKBAmount(perKB, bytes))
}

// FlushCharges drains this CPU's pending buffer into the global clock.
// Called at batch boundaries: fault return, access completion, and the
// timer tick (quantum end).
func (c *CPU) FlushCharges() {
	if d := c.pendingNS.Swap(0); d > 0 {
		c.machine.Clock.Advance(d)
	}
}

// PendingNS returns the not-yet-flushed charge in this CPU's buffer.
func (c *CPU) PendingNS() int64 { return c.pendingNS.Load() }

// ChargedNS returns the lifetime virtual nanoseconds charged through
// this CPU (flushed or pending).
func (c *CPU) ChargedNS() int64 { return c.chargedNS.Load() }

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
// deferred actions, then flushes the CPU's charge buffer — the quantum
// end is a batch boundary for per-CPU charging.
func (c *CPU) Tick() {
	c.mu.Lock()
	work := c.deferred
	c.deferred = nil
	c.mu.Unlock()
	c.ticksHandled.Add(1)
	for _, fn := range work {
		fn(c)
	}
	c.FlushCharges()
}

// interrupt delivers an IPI: the handler runs "on" this CPU immediately.
// Interrupt return is a batch boundary — anything the handler charged to
// this CPU reaches the global clock before the sender proceeds.
func (c *CPU) interrupt(fn func(*CPU)) {
	c.ipisReceived.Add(1)
	fn(c)
	c.FlushCharges()
}
