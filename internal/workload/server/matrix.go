package server

// The fault/failover matrix: {healthy, slow, flaky, dead pager} × {normal,
// OOM pressure} × {clean, racy teardown} over a shrunk server world. Each
// cell boots a fresh world whose swap stack is a per-tenant-tier pager
// chain — flaky injector over a compressed tier over a network pager
// served in-process across a net.Pipe — drives the churn loop under a
// bounded context, and passes when it completes with zero structural
// invariant violations (healthy cells additionally require a clean pager
// boundary). Cells run real goroutines and wall-clock pager delays, so
// they are validated by invariants and the race detector, not by replay.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/pager"
	"machvm/internal/pager/netpager"
	"machvm/internal/pager/ztier"
	"machvm/internal/task"
	"machvm/internal/vmtypes"
	"machvm/internal/workload"
)

// PagerMode is the cell's pager-failure axis.
type PagerMode int

// The pager failure modes.
const (
	PagerHealthy PagerMode = iota
	PagerSlow              // every call delayed, inside the deadline
	PagerFlaky             // periodic injected errors and short reads
	PagerDead              // requests never answered; only the deadline ends them
)

// String names the mode.
func (m PagerMode) String() string {
	switch m {
	case PagerHealthy:
		return "healthy"
	case PagerSlow:
		return "slow"
	case PagerFlaky:
		return "flaky"
	case PagerDead:
		return "dead"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Cell is one matrix coordinate.
type Cell struct {
	Pager        PagerMode
	OOM          bool
	TeardownRace bool
}

// Name renders the coordinate compactly.
func (c Cell) Name() string {
	p := "mem=ok"
	if c.OOM {
		p = "mem=oom"
	}
	t := "teardown=clean"
	if c.TeardownRace {
		t = "teardown=racy"
	}
	return fmt.Sprintf("pager=%s %s %s", c.Pager, p, t)
}

// CellResult is one cell's outcome.
type CellResult struct {
	Cell      Cell
	Pass      bool
	Reason    string // why the cell failed ("" when it passed)
	Completed bool

	TasksRun            int
	Faults              uint64
	FaultErrors         uint64 // tolerated per-task failures (OOM, teardown, pager)
	PagerTimeouts       uint64
	PagerErrors         uint64
	InvariantViolations int
	VirtualNS           int64
}

// DefaultMatrix is the full 16-cell sweep.
func DefaultMatrix() []Cell {
	var cells []Cell
	for _, pm := range []PagerMode{PagerHealthy, PagerSlow, PagerFlaky, PagerDead} {
		for _, oom := range []bool{false, true} {
			for _, race := range []bool{false, true} {
				cells = append(cells, Cell{Pager: pm, OOM: oom, TeardownRace: race})
			}
		}
	}
	return cells
}

// MatrixConfig tunes the per-cell workload. The zero value is the CI
// smoke configuration.
type MatrixConfig struct {
	// Tasks per cell (default 12).
	Tasks int
	// WorkPages per task (default 8; OOM cells get 4x).
	WorkPages int
	// CellTimeout bounds one cell (default 30s).
	CellTimeout time.Duration
}

func (mc MatrixConfig) withDefaults() MatrixConfig {
	if mc.Tasks == 0 {
		mc.Tasks = 12
	}
	if mc.WorkPages == 0 {
		mc.WorkPages = 8
	}
	if mc.CellTimeout == 0 {
		mc.CellTimeout = 30 * time.Second
	}
	return mc
}

// RunMatrix sweeps the cells sequentially and returns one result each.
func RunMatrix(ctx context.Context, a workload.Arch, cells []Cell, mc MatrixConfig) []CellResult {
	results := make([]CellResult, 0, len(cells))
	for _, c := range cells {
		results = append(results, RunCell(ctx, a, c, mc))
	}
	return results
}

// cellPagers is the per-cell pager chain, kept for knob access and
// teardown.
type cellPagers struct {
	flaky  *pager.FlakyPager
	tier   *ztier.Tier
	client *netpager.Client
	served sync.WaitGroup
}

func (cp *cellPagers) close() {
	if cp.tier != nil {
		cp.tier.Close()
	}
	if cp.client != nil {
		cp.client.Close() // unblocks Serve on the other pipe end
	}
	cp.served.Wait()
}

// RunCell boots a world for the cell, drives the shrunk server churn
// under a bounded context, and judges the outcome.
func RunCell(ctx context.Context, a workload.Arch, c Cell, mc MatrixConfig) CellResult {
	mc = mc.withDefaults()
	res := CellResult{Cell: c}
	ctx, cancel := context.WithTimeout(ctx, mc.CellTimeout)
	defer cancel()

	memMB := 8
	workPages := mc.WorkPages
	if c.OOM {
		// Undersized memory plus oversized working sets: the allocator
		// must reclaim continuously and sometimes report ErrNoMemory.
		memMB = 2
		workPages *= 4
	}
	pageSz := uint64(workload.SpecFor(a).MachPageSize)
	cp := &cellPagers{}
	sc := workload.Mach(
		func(ctx context.Context, w *workload.MachWorld) (workload.Report, error) {
			return driveCell(ctx, w, c, cp, workPages, mc.Tasks, &res)
		},
		workload.WithMemoryMB(memMB),
		// Short conversations so dead-pager cells resolve in bounded wall
		// time: one attempt, 100ms budget.
		workload.WithPagerPolicy(core.PagerPolicy{
			Deadline:    100 * time.Millisecond,
			Retries:     -1,
			BackoffBase: time.Millisecond,
			BackoffMax:  5 * time.Millisecond,
		}),
		workload.WithInjector(func(core.Pager) core.Pager {
			// Replace the swap stack wholesale: flaky(ztier(netpager)),
			// the per-tenant-tier chain, served in-process.
			cli, srv := net.Pipe()
			cp.served.Add(1)
			go func() {
				defer cp.served.Done()
				_ = netpager.Serve(srv, netpager.NewMemBackend(pageSz))
			}()
			cp.client = netpager.NewClient(cli, "tier")
			cp.tier = ztier.New(cp.client, ztier.Config{
				Budget:            256 << 10,
				PageSize:          pageSz,
				WritebackDeadline: 200 * time.Millisecond,
			})
			cp.flaky = pager.NewFlakyPager(cp.tier)
			switch c.Pager {
			case PagerSlow:
				cp.flaky.SetDelay(2 * time.Millisecond)
			case PagerDead:
				cp.flaky.SetDrop(true)
			}
			return cp.flaky
		}),
	)
	w, err := sc.Build(a)
	if err != nil {
		res.Reason = "build: " + err.Error()
		return res
	}
	defer cp.close()
	rep, err := w.Run(ctx)
	res.Faults = rep.Stats.Faults
	res.PagerTimeouts = rep.Stats.PagerTimeouts
	res.PagerErrors = rep.Stats.PagerErrors
	res.VirtualNS = rep.VirtualNS
	if err != nil {
		res.Reason = "run: " + err.Error()
		return res
	}
	res.Completed = true
	res.InvariantViolations = len(w.Kernel().CheckInvariants())

	switch {
	case res.InvariantViolations != 0:
		res.Reason = fmt.Sprintf("%d invariant violations", res.InvariantViolations)
	case res.TasksRun < mc.Tasks:
		res.Reason = fmt.Sprintf("only %d/%d tasks ran", res.TasksRun, mc.Tasks)
	case c.Pager == PagerHealthy && !c.OOM && !c.TeardownRace && res.FaultErrors != 0:
		res.Reason = fmt.Sprintf("%d fault errors in the clean cell", res.FaultErrors)
	case c.Pager == PagerHealthy && res.PagerTimeouts != 0:
		res.Reason = fmt.Sprintf("%d pager timeouts with a healthy pager", res.PagerTimeouts)
	default:
		res.Pass = true
	}
	return res
}

// tolerable reports whether a per-task error is an expected degradation
// for the cell — resource exhaustion, a torn-down map, a pager failure
// or the cell deadline — rather than a kernel defect. The judge above
// still fails cells where tolerated errors are not allowed.
func tolerable(err error) bool {
	return errors.Is(err, core.ErrNoMemory) ||
		errors.Is(err, core.ErrFaultNoEntry) ||
		errors.Is(err, pager.ErrInjected) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, core.ErrPagerTimeout) ||
		errors.Is(err, core.ErrPagerFailed)
}

// driveCell is the shrunk server churn: one tenant image, fork/exec
// tasks, working-set touches, pageout pressure — with injected pager
// behavior rearmed per task and, in racy cells, a concurrent goroutine
// destroying tasks out from under in-flight touches.
func driveCell(ctx context.Context, w *workload.MachWorld, c Cell, cp *cellPagers, workPages, tasks int, res *CellResult) (workload.Report, error) {
	k := w.Kernel
	cpu := w.Machine.CPU(0)
	pageSz := k.PageSize()

	countErr := func(err error) error {
		if err == nil {
			return nil
		}
		if tolerable(err) {
			res.FaultErrors++
			return nil
		}
		return err
	}

	// In OOM cells the base task's anonymous state plus each child's
	// fully written working set must exceed physical memory, so the
	// reclaimer pages out continuously, faults pull back through the
	// injected swap stack, and allocation sometimes fails outright.
	anonPages := uint64(workPages)
	if c.OOM {
		if tp := uint64(k.TotalPages()) / 2; tp > anonPages {
			anonPages = tp
		}
	}

	imgBuf := make([]byte, 8*pageSz)
	for j := range imgBuf {
		imgBuf[j] = 0x5C
	}
	if err := w.CreateFile("app", imgBuf); err != nil {
		return workload.Report{}, err
	}
	base := task.New(k, "base")
	baseTh := base.SpawnThread(cpu)
	anonSize := anonPages * pageSz
	anon, err := base.Map.Allocate(0, anonSize, true)
	if err != nil {
		return workload.Report{}, err
	}
	anonBuf := make([]byte, anonSize)
	if err := countErr(baseTh.WriteContext(ctx, anon, anonBuf)); err != nil {
		return workload.Report{}, err
	}

	// The teardown racer: destroys whatever tasks the main loop hands it,
	// concurrently with the main loop's touches on those same maps.
	var victims chan *task.Task
	var racer sync.WaitGroup
	var stopRacer sync.Once
	if c.TeardownRace {
		victims = make(chan *task.Task, tasks)
		racer.Add(1)
		go func() {
			defer racer.Done()
			for t := range victims {
				t.Destroy()
			}
		}()
		defer racer.Wait()
		defer stopRacer.Do(func() { close(victims) })
	}

	workBuf := make([]byte, 64)
	childBuf := make([]byte, anonSize)
	lcg := uint64(1)
	for n := 0; n < tasks; n++ {
		if ctx.Err() != nil {
			break
		}
		if c.Pager == PagerFlaky && n%3 == 0 {
			// Rearm intermittent misbehaviour: a burst of failures and a
			// short read, then clean again.
			cp.flaky.FailNextRequests(2)
			cp.flaky.SetShortRead(int(pageSz) / 2)
		}

		child := base.Fork(fmt.Sprintf("req%d", n))
		th := child.SpawnThread(cpu)

		// COW push from the parent, copy pull from the child.
		off := vmtypes.VA((uint64(n) % anonPages) * pageSz)
		if err := countErr(baseTh.WriteContext(ctx, anon+off, workBuf)); err != nil {
			return workload.Report{Ops: n}, err
		}
		if err := countErr(th.ReadContext(ctx, anon+off, workBuf)); err != nil {
			return workload.Report{Ops: n}, err
		}

		// exec: map the shared image.
		if err := countErr(execImage(ctx, w, child, cpu, workBuf, pageSz)); err != nil {
			return workload.Report{Ops: n}, err
		}

		// Private working set.
		workVA, aerr := child.Map.Allocate(0, anonSize, true)
		if aerr != nil {
			if err := countErr(aerr); err != nil {
				return workload.Report{Ops: n}, err
			}
			res.TasksRun++
			child.Destroy()
			continue
		}

		// Dirty the whole working set: in OOM cells base + child exceed
		// physical memory, so this is what forces the reclaimer's hand.
		if err := countErr(th.WriteContext(ctx, workVA, childBuf)); err != nil {
			return workload.Report{Ops: n}, err
		}

		// In racy cells the task is handed to the destroyer before its
		// touches finish — faults race Map.Destroy by design.
		if c.TeardownRace {
			victims <- child
		}
		for r := 0; r < 16; r++ {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			va := workVA + vmtypes.VA((lcg>>33)%anonPages*pageSz)
			var terr error
			if r%2 == 0 {
				terr = th.WriteContext(ctx, va, workBuf)
			} else {
				terr = th.ReadContext(ctx, va, workBuf)
			}
			if err := countErr(terr); err != nil {
				return workload.Report{Ops: n}, err
			}
		}
		if !c.TeardownRace {
			th.Detach()
			child.Destroy()
		}
		res.TasksRun++

		// Keep the reclaimer under sustained demand. Frequent scans also
		// push pages to swap in cells without allocation pressure, so even
		// mem=ok cells exercise the injected pager stack on the way back.
		if n%2 == 1 {
			k.PageoutScan()
		}
	}

	if c.TeardownRace {
		stopRacer.Do(func() { close(victims) })
		racer.Wait()
	}
	base.Destroy()
	return workload.Report{Ops: res.TasksRun}, nil
}

// execImage maps the shared app image into the task and strides through
// it — the exec text mapping, demand paged from the shared page cache.
func execImage(ctx context.Context, w *workload.MachWorld, t *task.Task, cpu *hw.CPU, buf []byte, pageSz uint64) error {
	k := w.Kernel
	obj, err := w.FileObject("app")
	if err != nil {
		return err
	}
	va, err := t.Map.AllocateWithObject(0, obj.Size(), true, obj, 0,
		vmtypes.ProtRead|vmtypes.ProtExecute, vmtypes.ProtAll, vmtypes.InheritCopy, false)
	if err != nil {
		k.ReleaseObjectRef(obj)
		return err
	}
	for off := uint64(0); off < obj.Size(); off += 2 * pageSz {
		if err := k.AccessBytesContext(ctx, cpu, t.Map, va+vmtypes.VA(off), buf, false); err != nil {
			return err
		}
	}
	return nil
}

// Grid renders the matrix as an aligned pass/fail table.
func Grid(results []CellResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-44s %-6s %8s %8s %8s %8s %8s %6s  %s\n",
		"cell", "result", "tasks", "faults", "flterrs", "timeouts", "pgrerrs", "inv", "note")
	for _, r := range results {
		verdict := "PASS"
		if !r.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(&b, "%-44s %-6s %8d %8d %8d %8d %8d %6d  %s\n",
			r.Cell.Name(), verdict, r.TasksRun, r.Faults, r.FaultErrors,
			r.PagerTimeouts, r.PagerErrors, r.InvariantViolations, r.Reason)
	}
	return b.String()
}

// AllPass reports whether every cell passed.
func AllPass(results []CellResult) bool {
	for _, r := range results {
		if !r.Pass {
			return false
		}
	}
	return true
}
