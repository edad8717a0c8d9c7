package core

// The contract of the deadline-only context a pager conversation runs
// under: a context.Context in every respect a pager can observe, with the
// runtime timer and the Done channel made only when somebody asks for them.

import (
	"context"
	"runtime"
	"testing"
	"time"
)

func TestDeadlineContext(t *testing.T) {
	const soon = 30 * time.Millisecond
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	waitClosed := func(t *testing.T, ch <-chan struct{}) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("Done never closed")
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, c *deadlineCtx)
	}{
		{"Err follows the clock without Done ever being called", func(t *testing.T, c *deadlineCtx) {
			if d, ok := c.Deadline(); !ok || !d.Equal(c.deadline) {
				t.Fatalf("Deadline() = %v, %v", d, ok)
			}
			if err := c.Err(); err != nil {
				t.Fatalf("Err() before the deadline = %v", err)
			}
			time.Sleep(time.Until(c.deadline) + time.Millisecond)
			if err := c.Err(); err != context.DeadlineExceeded {
				t.Fatalf("Err() after the deadline = %v", err)
			}
			if c.done != nil || c.timer != nil {
				t.Fatal("a channel or timer was made though nobody asked for Done")
			}
			c.finish() // the conversation ending later does not rewrite history
			if err := c.Err(); err != context.DeadlineExceeded {
				t.Fatalf("Err() after expiry and finish = %v", err)
			}
			if !closed(c.Done()) {
				t.Fatal("Done() of an expired context is open")
			}
		}},
		{"Done closes at the deadline", func(t *testing.T, c *deadlineCtx) {
			done := c.Done()
			if closed(done) || c.Err() != nil {
				t.Fatal("done before the deadline")
			}
			waitClosed(t, done)
			if err := c.Err(); err != context.DeadlineExceeded {
				t.Fatalf("Err() once Done closed = %v", err)
			}
			if c.Done() != done {
				t.Fatal("Done() returned a second channel")
			}
		}},
		{"finish cancels, stops the timer, and is idempotent", func(t *testing.T, c *deadlineCtx) {
			done := c.Done()
			c.finish()
			if !closed(done) {
				t.Fatal("finish left Done open")
			}
			if err := c.Err(); err != context.Canceled {
				t.Fatalf("Err() after finish = %v", err)
			}
			if c.timer.Stop() {
				t.Fatal("finish left the deadline timer running")
			}
			c.finish() // a second close of done would panic
			time.Sleep(time.Until(c.deadline) + time.Millisecond)
			if err := c.Err(); err != context.Canceled {
				t.Fatalf("Err() changed to %v after the deadline passed", err)
			}
		}},
		{"finish before anybody asked for Done makes no timer", func(t *testing.T, c *deadlineCtx) {
			c.finish()
			if c.timer != nil || c.done != nil {
				t.Fatal("finish made a channel or timer")
			}
			if !closed(c.Done()) || c.timer != nil {
				t.Fatal("Done() after finish is open or armed a timer")
			}
		}},
		{"a WithCancel child observes the parent's deadline", func(t *testing.T, c *deadlineCtx) {
			child, cancel := context.WithCancel(c)
			defer cancel()
			waitClosed(t, child.Done())
			if err := child.Err(); err != context.DeadlineExceeded {
				t.Fatalf("child Err() = %v", err)
			}
		}},
		{"a WithCancel child observes finish", func(t *testing.T, c *deadlineCtx) {
			child, cancel := context.WithCancel(c)
			defer cancel()
			c.finish()
			waitClosed(t, child.Done())
			if err := child.Err(); err != context.Canceled {
				t.Fatalf("child Err() = %v", err)
			}
		}},
	}
	before := runtime.NumGoroutine()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, &deadlineCtx{deadline: time.Now().Add(soon)})
		})
	}
	// Nothing outlives the contexts: no timer goroutine, no propagation
	// goroutine of a WithCancel child.
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 200 {
			t.Fatalf("%d goroutines before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
