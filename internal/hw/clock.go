package hw

import "sync/atomic"

// Clock is the virtual clock: one atomic counter of nanoseconds. It
// advances only when components charge simulated time against it, so
// identical workloads produce identical virtual durations regardless of
// host speed, and every charge lands when it is incurred, so the
// difference of two reads is exactly what was charged between them.
type Clock struct {
	ns atomic.Int64
}

// Now returns the current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.ns.Load() }

// Advance adds d virtual nanoseconds. Negative and zero charges are
// ignored.
func (c *Clock) Advance(d int64) {
	if d > 0 {
		c.ns.Add(d)
	}
}
