package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// deadlineCtx is the context one pager conversation runs under: the
// kernel's PagerPolicy.Deadline as a context.Context that costs nothing
// until somebody waits on it. Err compares the clock; the Done channel, and
// the runtime timer that closes it at the deadline, are created only when a
// pager (or a context derived from this one) asks for Done — the default
// pager and the inode pager never do. finish ends the conversation: Err
// turns Canceled, Done closes, the timer is stopped.
type deadlineCtx struct {
	deadline time.Time
	state    atomic.Int32 // indexes ctxErr; leaves ctxLive once, under mu

	mu    sync.Mutex // guards done and timer
	done  chan struct{}
	timer *time.Timer
}

const (
	ctxLive = iota
	ctxExpired
	ctxFinished
)

var ctxErr = [...]error{ctxLive: nil, ctxExpired: context.DeadlineExceeded, ctxFinished: context.Canceled}

func (c *deadlineCtx) Deadline() (time.Time, bool) { return c.deadline, true }
func (c *deadlineCtx) Value(any) any               { return nil }

func (c *deadlineCtx) Err() error {
	if c.state.Load() == ctxLive && !time.Now().Before(c.deadline) {
		c.settle(ctxExpired)
	}
	return ctxErr[c.state.Load()]
}

func (c *deadlineCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.state.Load() != ctxLive {
			close(c.done)
		} else {
			c.timer = time.AfterFunc(time.Until(c.deadline), func() { c.settle(ctxExpired) })
		}
	}
	return c.done
}

// settle moves a live context to its final state; later calls are no-ops.
func (c *deadlineCtx) settle(to int32) {
	c.mu.Lock()
	if c.state.Load() == ctxLive {
		c.state.Store(to)
		if c.done != nil {
			close(c.done)
		}
		if c.timer != nil {
			c.timer.Stop()
		}
	}
	c.mu.Unlock()
}

func (c *deadlineCtx) finish() { c.settle(ctxFinished) }
