package core_test

// Tests for the context-aware pager boundary: deadline/retry/backoff
// accounting, single-flight deduplication of concurrent faults, the
// busy-page claim protocol under abandonment, and per-object degradation.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"machvm/internal/core"
	"machvm/internal/pager"
	"machvm/internal/vmtypes"
)

// scriptedPager fails a configurable number of DataRequests before
// serving, and can be parked (blocking until released or ctx fires).
type scriptedPager struct {
	mu        sync.Mutex
	failFirst int // fail this many requests with errFlaky
	hang      bool
	requests  int
	started   chan struct{} // signalled once per request that begins
	release   chan struct{} // hung/parked requests wait here
	data      []byte
}

var errFlaky = errors.New("scripted pager failure")

func newScriptedPager(data []byte) *scriptedPager {
	return &scriptedPager{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
		data:    data,
	}
}

func (p *scriptedPager) Name() string             { return "scripted" }
func (p *scriptedPager) Init(obj *core.Object)    {}
func (p *scriptedPager) Terminate(o *core.Object) {}
func (p *scriptedPager) DataWrite(ctx context.Context, o *core.Object, off uint64, d []byte) error {
	return nil
}
func (p *scriptedPager) DataRequest(ctx context.Context, o *core.Object, off uint64, n int) ([]byte, error) {
	p.mu.Lock()
	p.requests++
	fail := p.failFirst > 0
	if fail {
		p.failFirst--
	}
	hang := p.hang
	p.mu.Unlock()
	select {
	case p.started <- struct{}{}:
	default:
	}
	if hang {
		select {
		case <-p.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if fail {
		return nil, errFlaky
	}
	return p.data, nil
}

func (p *scriptedPager) requestCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.requests
}

// mapPagerObject maps a one-page object backed by pg and returns its
// address.
func mapPagerObject(t *testing.T, k *core.Kernel, pg core.Pager) (*core.Map, *core.Object, vmtypes.VA) {
	t.Helper()
	obj := k.NewObject(4096, pg, "policy-test")
	m := k.NewMap()
	t.Cleanup(m.Destroy)
	addr, err := m.AllocateWithObject(0, 4096, true, obj, 0,
		vmtypes.ProtDefault, vmtypes.ProtAll, vmtypes.InheritCopy, false)
	if err != nil {
		t.Fatalf("AllocateWithObject: %v", err)
	}
	return m, obj, addr
}

func TestPagerPolicyNormalization(t *testing.T) {
	k, _ := newVAXKernel(t, 1)
	// The zero value selects defaults.
	if got, want := k.PagerPolicy(), core.DefaultPagerPolicy(); got != want {
		t.Fatalf("zero policy normalized to %+v, want %+v", got, want)
	}
	// Negative sentinels disable the bound.
	k.SetPagerPolicy(core.PagerPolicy{Deadline: -1, Retries: -1})
	got := k.PagerPolicy()
	if got.Deadline != 0 || got.Retries != 0 {
		t.Fatalf("negative sentinels not disabled: %+v", got)
	}
	if got.BackoffBase == 0 || got.BackoffMax == 0 {
		t.Fatalf("backoff defaults missing: %+v", got)
	}
}

func TestPagerRetryRecoversFromTransientFailures(t *testing.T) {
	k, machine := newVAXKernel(t, 1)
	k.SetPagerPolicy(core.PagerPolicy{
		Deadline:    time.Second,
		Retries:     2,
		BackoffBase: time.Millisecond,
	})
	want := bytes.Repeat([]byte{0x5A}, 4096)
	pg := newScriptedPager(want)
	pg.failFirst = 2
	m, _, addr := mapPagerObject(t, k, pg)
	m.Pmap().Activate(machine.CPU(0))

	got := make([]byte, 8)
	if err := k.AccessBytes(machine.CPU(0), m, addr, got, false); err != nil {
		t.Fatalf("fault after transient failures: %v", err)
	}
	if !bytes.Equal(got, want[:8]) {
		t.Fatalf("read %x, want %x", got, want[:8])
	}
	if n := pg.requestCount(); n != 3 {
		t.Fatalf("pager saw %d requests, want 3 (1 + 2 retries)", n)
	}
	st := k.VMStatistics()
	if st.PagerRetries != 2 {
		t.Fatalf("PagerRetries = %d, want 2", st.PagerRetries)
	}
	if st.PagerErrors != 2 {
		t.Fatalf("PagerErrors = %d, want 2", st.PagerErrors)
	}
	if st.Pageins != 1 {
		t.Fatalf("Pageins = %d, want 1", st.Pageins)
	}
}

func TestPagerRetriesExhaustedSurfaceError(t *testing.T) {
	k, machine := newVAXKernel(t, 1)
	k.SetPagerPolicy(core.PagerPolicy{
		Deadline:    time.Second,
		Retries:     1,
		BackoffBase: time.Millisecond,
	})
	pg := newScriptedPager(nil)
	pg.failFirst = 1 << 20 // effectively always
	m, _, addr := mapPagerObject(t, k, pg)
	m.Pmap().Activate(machine.CPU(0))

	err := k.Touch(machine.CPU(0), m, addr, false)
	if err == nil {
		t.Fatal("exhausted retries should fail the fault")
	}
	if !errors.Is(err, errFlaky) {
		t.Fatalf("error should wrap the pager's failure, got %v", err)
	}
	if errors.Is(err, core.ErrPagerTimeout) {
		t.Fatalf("plain failure misclassified as timeout: %v", err)
	}
	if !errors.Is(err, core.ErrPagerFailed) {
		t.Fatalf("exhausted retries should be typed ErrPagerFailed, got %v", err)
	}
	if n := pg.requestCount(); n != 2 {
		t.Fatalf("pager saw %d requests, want 2 (1 + 1 retry)", n)
	}
	// The failed flight must not leave a busy page behind: a later fault
	// reissues the request.
	_ = k.Touch(machine.CPU(0), m, addr, false)
	if n := pg.requestCount(); n != 4 {
		t.Fatalf("refault saw %d total requests, want 4", n)
	}
}

// TestFlakyPagerFailureIsTyped: a pager that fails every request surfaces,
// through Fault, an error that names both the kernel's verdict and the
// pager's own cause — what server.tolerable matches on instead of the
// error text.
func TestFlakyPagerFailureIsTyped(t *testing.T) {
	k, _ := newVAXKernel(t, 1)
	k.SetPagerPolicy(core.PagerPolicy{
		Deadline:    time.Second,
		Retries:     1,
		BackoffBase: time.Millisecond,
	})
	fp := pager.NewFlakyPager(newScriptedPager(nil))
	fp.FailNextRequests(-1)
	m, _, addr := mapPagerObject(t, k, fp)

	err := k.Fault(m, addr, vmtypes.ProtRead)
	if !errors.Is(err, core.ErrPagerFailed) || !errors.Is(err, pager.ErrInjected) {
		t.Fatalf("want ErrPagerFailed wrapping ErrInjected, got %v", err)
	}
	if errors.Is(err, core.ErrPagerTimeout) {
		t.Fatalf("plain failure misclassified as timeout: %v", err)
	}
}

func TestPagerSingleFlightDeduplicates(t *testing.T) {
	k, machine := newVAXKernel(t, 2)
	k.SetPagerPolicy(core.PagerPolicy{Deadline: 5 * time.Second})
	want := bytes.Repeat([]byte{0xC3}, 4096)
	pg := newScriptedPager(want)
	pg.hang = true
	m, _, addr := mapPagerObject(t, k, pg)
	m.Pmap().Activate(machine.CPU(0))
	m.Pmap().Activate(machine.CPU(1))

	const joiners = 7
	var wg sync.WaitGroup
	errs := make(chan error, joiners+1)
	// The leader starts the pager conversation and parks inside it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs <- k.Touch(machine.CPU(0), m, addr, false)
	}()
	<-pg.started // flight registered, page busy, pager parked
	for i := 0; i < joiners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- k.Touch(machine.CPU(i%2), m, addr, false)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the joiners reach the flight
	close(pg.release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("joined fault failed: %v", err)
		}
	}
	if n := pg.requestCount(); n != 1 {
		t.Fatalf("pager saw %d requests for one page, want 1", n)
	}
	st := k.VMStatistics()
	if st.PagerFlightJoins == 0 {
		t.Fatal("no faulter joined the flight")
	}
	if st.Pageins != 1 {
		t.Fatalf("Pageins = %d, want 1", st.Pageins)
	}
	got := make([]byte, 4)
	if err := k.AccessBytes(machine.CPU(0), m, addr, got, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want[:4]) {
		t.Fatalf("read %x, want %x", got, want[:4])
	}
}

func TestPagerAbandonmentReleasesBusyPage(t *testing.T) {
	k, machine := newVAXKernel(t, 1)
	k.SetPagerPolicy(core.PagerPolicy{
		Deadline: 150 * time.Millisecond,
		Retries:  -1,
	})
	pg := newScriptedPager(bytes.Repeat([]byte{1}, 4096))
	pg.hang = true
	m, _, addr := mapPagerObject(t, k, pg)
	m.Pmap().Activate(machine.CPU(0))

	// A cancellable faulter abandons the wait long before the pager
	// deadline; the flight keeps owning the busy page.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- k.TouchContext(ctx, machine.CPU(0), m, addr, false) }()
	<-pg.started
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("abandoned fault should return an error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandonment should surface ctx.Err, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled faulter did not return")
	}
	if st := k.VMStatistics(); st.PagerAbandons != 1 {
		t.Fatalf("PagerAbandons = %d, want 1", st.PagerAbandons)
	}

	// The orphaned flight resolves at its own deadline and frees the
	// page; a fresh fault must not find it wedged busy. The pager now
	// answers, so the refault succeeds.
	start := time.Now()
	close(pg.release)
	pg.mu.Lock()
	pg.hang = false
	pg.mu.Unlock()
	b := []byte{9}
	if err := k.AccessBytes(machine.CPU(0), m, addr, b, false); err != nil {
		t.Fatalf("refault after abandonment: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("refault blocked %v on an abandoned page", elapsed)
	}
	if b[0] != 1 {
		t.Fatalf("refault read %d, want pager data", b[0])
	}
}

func TestFallbackSwapReadsDefaultPager(t *testing.T) {
	k, machine := newVAXKernel(t, 1)
	k.SetPagerPolicy(core.PagerPolicy{
		Deadline:    time.Second,
		Retries:     -1,
		BackoffBase: time.Millisecond,
	})
	pg := newScriptedPager(nil)
	pg.failFirst = 1 << 20
	_, obj, _ := mapPagerObject(t, k, pg)
	obj.SetPagerFallback(core.FallbackSwap)
	m := k.NewMap()
	defer m.Destroy()
	addr, err := m.AllocateWithObject(0, 4096, true, obj, 0,
		vmtypes.ProtDefault, vmtypes.ProtAll, vmtypes.InheritCopy, false)
	if err != nil {
		t.Fatal(err)
	}
	obj.Reference()
	m.Pmap().Activate(machine.CPU(0))

	// Seed the default pager with the data the failing pager can't serve.
	seeded := bytes.Repeat([]byte{0x77}, 4096)
	if err := k.SwapPager().DataWrite(context.Background(), obj, 0, seeded); err != nil {
		t.Fatalf("seeding swap: %v", err)
	}

	got := make([]byte, 4)
	if err := k.AccessBytes(machine.CPU(0), m, addr, got, false); err != nil {
		t.Fatalf("FallbackSwap fault: %v", err)
	}
	if !bytes.Equal(got, seeded[:4]) {
		t.Fatalf("read %x, want swap data %x", got, seeded[:4])
	}
	st := k.VMStatistics()
	if st.PagerFallbacks == 0 {
		t.Fatal("PagerFallbacks not incremented")
	}
}

func TestPagerTimeoutClassification(t *testing.T) {
	k, machine := newVAXKernel(t, 1)
	k.SetPagerPolicy(core.PagerPolicy{
		Deadline: 50 * time.Millisecond,
		Retries:  -1,
	})
	pg := newScriptedPager(nil)
	pg.hang = true // honours ctx: the deadline classifies this as timeout
	m, _, addr := mapPagerObject(t, k, pg)
	m.Pmap().Activate(machine.CPU(0))

	start := time.Now()
	err := k.Touch(machine.CPU(0), m, addr, false)
	if !errors.Is(err, core.ErrPagerTimeout) {
		t.Fatalf("hung pager should surface ErrPagerTimeout, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, deadline is 50ms", elapsed)
	}
	if st := k.VMStatistics(); st.PagerTimeouts == 0 {
		t.Fatal("PagerTimeouts not incremented")
	}
	_ = fmt.Sprintf("%v", err) // the error formats without panicking
}
