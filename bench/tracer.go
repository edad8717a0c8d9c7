package main

// The benchmark's span recorder. The traced pass wraps every layer boundary
// from the outside (see decor.go and the timer helpers in world.go) and
// records each crossing here in both clocks: host time (time.Now) and the
// simulated machine's virtual clock with every CPU's charge buffer flushed.
//
// A span's self time is its duration minus the part its child spans cover.
// The recorder's own cost is kept out of every layer: a child covers its
// parent for its whole envelope (from entry into begin to return from end),
// while the span itself runs only from the last instruction of begin to the
// first of end; the difference accumulates as the trace layer's self time.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"machvm/internal/hw"
)

// nameID identifies a span name; the string form is the metric prefix.
type nameID uint8

const (
	nAccess nameID = iota // a touch that took no fault (TLB hit or hardware walk)
	nFaultResident
	nFaultZeroFill
	nFaultCow
	nFaultPagein
	nMapAllocate
	nMapDeallocate
	nMapProtect
	nTaskFork
	nTaskDestroy
	nTaskThread // SpawnThread / Detach
	nPageoutScan
	nPmapEnter
	nPmapRemove
	nPmapProtect
	nPmapZeroPage
	nPmapCopyPage
	nPmapEnterRange
	nPmapRemoveAll
	nPmapCopyOnWrite
	nPmapUpdate
	nInodeRequest
	nInodeWrite
	nSwapRequest
	nSwapWrite
	nZtierRequest
	nZtierWrite
	nNetRequest
	nNetWrite
	nBackendRequest
	nBackendWrite
	nWorkloadScenario
	nBaselineScenario
	numNames
)

var spanNames = [numNames]string{
	nAccess:           "hw.access",
	nFaultResident:    "core.fault.resident",
	nFaultZeroFill:    "core.fault.zero_fill",
	nFaultCow:         "core.fault.cow",
	nFaultPagein:      "core.fault.pagein",
	nMapAllocate:      "core.map.allocate",
	nMapDeallocate:    "core.map.deallocate",
	nMapProtect:       "core.map.protect",
	nTaskFork:         "task.fork",
	nTaskDestroy:      "task.destroy",
	nTaskThread:       "task.thread",
	nPageoutScan:      "core.pageout.scan",
	nPmapEnter:        "pmap.enter",
	nPmapRemove:       "pmap.remove",
	nPmapProtect:      "pmap.protect",
	nPmapZeroPage:     "pmap.zero_page",
	nPmapCopyPage:     "pmap.copy_page",
	nPmapEnterRange:   "pmap.enter_range",
	nPmapRemoveAll:    "pmap.remove_all",
	nPmapCopyOnWrite:  "pmap.copy_on_write",
	nPmapUpdate:       "pmap.update",
	nInodeRequest:     "pager.inode.request",
	nInodeWrite:       "pager.inode.write",
	nSwapRequest:      "pager.swap.request",
	nSwapWrite:        "pager.swap.write",
	nZtierRequest:     "pager.ztier.request",
	nZtierWrite:       "pager.ztier.write",
	nNetRequest:       "pager.netpager.request",
	nNetWrite:         "pager.netpager.write",
	nBackendRequest:   "pager.backend.request",
	nBackendWrite:     "pager.backend.write",
	nWorkloadScenario: "workload.scenario",
	nBaselineScenario: "baseline.scenario",
}

// Tracks of the exported timeline: one per simulated CPU, then one per
// pager layer (a pager span keeps its layer's track whatever goroutine ran
// it).
const (
	trackInode = 100 + iota
	trackSwap
	trackZtier
	trackNetpager
	trackBackend
	trackScenario
)

var trackNames = map[int]string{
	trackInode:    "pager.inode",
	trackSwap:     "pager.swap",
	trackZtier:    "pager.ztier",
	trackNetpager: "pager.netpager",
	trackBackend:  "pager.backend",
	trackScenario: "paper_tables scenarios",
}

// maxExportSpans caps the spans kept for the Chrome trace file; every span
// is aggregated whether or not it is kept.
const maxExportSpans = 50000

// span is one recorded layer crossing.
type span struct {
	name   nameID
	track  int32
	op     uint32 // the driver op that caused it
	parent int32  // index of the enclosing span, -1 at top level
	h0, h1 int64  // host ns since the trace started
	v0, v1 int64  // virtual ns
}

// aggregate sums every span of one name.
type aggregate struct {
	count    uint64
	wall     int64
	wallSelf int64
	virt     int64
	virtSelf int64
}

// frame is an open span.
type frame struct {
	idx      int32 // position in the recorded order
	name     nameID
	track    int32
	parent   *frame
	enter    int64 // host ns at entry into begin
	h0, v0   int64
	coverH   int64 // host ns covered by finished children (whole envelopes)
	coverV   int64
	detached bool // opened off the driver goroutine; not on the stack
	// background marks a span the driver is not waiting for (a ztier
	// writeback and whatever it calls): it overlaps the driver's own
	// spans, so its self time is work done, not wall time accounted for.
	background bool
}

// tracer records spans. All methods are safe on a nil receiver (the
// untraced pass) and for concurrent use: the driver goroutine owns the
// stack, background goroutines (ztier worker, netpager handlers) open
// detached spans.
type tracer struct {
	base    time.Time
	machine *hw.Machine
	// frozen is set when the traced pass is over: tearing the world down
	// still crosses the decorated boundaries, and must not be recorded.
	frozen atomic.Bool

	mu        sync.Mutex
	stack     [32]frame
	depth     int
	op        uint32
	total     int32
	spans     []span
	agg       [numNames]aggregate
	traceSelf int64 // host ns spent inside the recorder itself
	bgSelf    int64 // self time of background spans
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, maxExportSpans)}
}

// attach points the virtual clock at a (new) world's machine.
func (t *tracer) attach(m *hw.Machine) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.machine = m
	t.mu.Unlock()
}

// reset drops everything recorded so far: setup's spans are not part of the
// traced pass.
func (t *tracer) reset() {
	t.mu.Lock()
	t.op, t.total, t.traceSelf, t.bgSelf = 0, 0, 0, 0
	t.spans = t.spans[:0]
	t.agg = [numNames]aggregate{}
	t.mu.Unlock()
}

// freeze ends the recording. The driver is between operations when it
// calls this; a background span still open is dropped.
func (t *tracer) freeze() { t.frozen.Store(true) }

func (t *tracer) off() bool { return t == nil || t.frozen.Load() }

func (t *tracer) host() int64 { return int64(time.Since(t.base)) }

// virt reads the virtual clock with every CPU's pending charges flushed.
// Flushing moves charges the kernel has already made; it never adds any.
func (t *tracer) virt() int64 {
	if t.machine == nil {
		return 0
	}
	t.machine.FlushAllCharges()
	return t.machine.Clock.Now()
}

// nextOp starts a new driver operation; spans opened until the next call
// carry its id.
func (t *tracer) nextOp() {
	if t.off() {
		return
	}
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
}

// begin opens a span on the driver goroutine's stack and returns it (nil
// when nothing is being recorded); the pointer is valid until the span ends.
// track < 0 inherits the enclosing span's track (pmap calls run on the
// faulting CPU).
func (t *tracer) begin(name nameID, track int) *frame {
	if t.off() {
		return nil
	}
	enter := t.host()
	t.mu.Lock()
	if t.depth == len(t.stack) {
		panic("bench: span stack overflow")
	}
	f := &t.stack[t.depth]
	var parent *frame
	if t.depth > 0 {
		parent = &t.stack[t.depth-1]
		if track < 0 {
			track = int(parent.track)
		}
	}
	*f = frame{idx: t.total, name: name, track: int32(track), parent: parent, enter: enter}
	t.total++
	t.depth++
	f.v0 = t.virt()
	t.mu.Unlock()
	f.h0 = t.host()
	return f
}

// end closes the innermost driver span.
func (t *tracer) end() { t.endAs(numNames) }

// endAs closes the innermost driver span under a name decided only now
// (a touch is classified by the fault counter it bumped).
func (t *tracer) endAs(name nameID) {
	if t.off() {
		return
	}
	h1 := t.host()
	t.mu.Lock()
	f := &t.stack[t.depth-1]
	if name != numNames {
		f.name = name
	}
	t.depth--
	t.finish(f, h1)
	t.mu.Unlock()
}

// beginDetached opens a span from a background goroutine. parent may be
// nil (work nothing on the driver is waiting for, e.g. a ztier writeback).
func (t *tracer) beginDetached(name nameID, track int, parent *frame) *frame {
	if t.off() {
		return nil
	}
	enter := t.host()
	t.mu.Lock()
	f := &frame{idx: t.total, name: name, track: int32(track), parent: parent, enter: enter, detached: true}
	f.background = parent == nil || parent.background
	t.total++
	f.v0 = t.virt()
	t.mu.Unlock()
	f.h0 = t.host()
	return f
}

func (t *tracer) endDetached(f *frame) {
	if f == nil || t.off() {
		return
	}
	h1 := t.host()
	t.mu.Lock()
	t.finish(f, h1)
	t.mu.Unlock()
}

// finish aggregates a closed span and charges its envelope to its parent.
// Caller holds t.mu.
func (t *tracer) finish(f *frame, h1 int64) {
	v1 := t.virt()
	a := &t.agg[f.name]
	a.count++
	a.wall += h1 - f.h0
	a.wallSelf += h1 - f.h0 - f.coverH
	if f.background {
		t.bgSelf += h1 - f.h0 - f.coverH
	}
	a.virt += v1 - f.v0
	a.virtSelf += v1 - f.v0 - f.coverV
	if len(t.spans) < maxExportSpans {
		parent := int32(-1)
		if f.parent != nil {
			parent = f.parent.idx
		}
		t.spans = append(t.spans, span{
			name: f.name, track: f.track, op: t.op, parent: parent,
			h0: f.h0, h1: h1, v0: f.v0, v1: v1,
		})
	}
	exit := t.host()
	envelope := exit - f.enter
	if !f.background {
		t.traceSelf += envelope - (h1 - f.h0)
	}
	if f.parent != nil {
		f.parent.coverH += envelope
		f.parent.coverV += v1 - f.v0
	}
}

// addSpan records a finished top-level span whose clocks were read by the
// caller (paper_tables scenarios each run on a machine of their own).
func (t *tracer) addSpan(name nameID, track int, h0, h1, virtNS int64) {
	if t.off() {
		return
	}
	t.mu.Lock()
	t.total++
	a := &t.agg[name]
	a.count++
	a.wall += h1 - h0
	a.wallSelf += h1 - h0
	a.virt += virtNS
	a.virtSelf += virtNS
	if len(t.spans) < maxExportSpans {
		t.spans = append(t.spans, span{name: name, track: int32(track), op: t.op, parent: -1, h0: h0, h1: h1, v1: virtNS})
	}
	t.mu.Unlock()
}

// layerSelf sums the self time of every span the driver waited for: the
// part of the traced wall time attributed to a layer.
func (t *tracer) layerSelf() int64 {
	sum := -t.bgSelf
	for i := range t.agg {
		sum += t.agg[i].wallSelf
	}
	return sum
}

// chromeEvent is one entry of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the kept spans as Chrome trace-event JSON (opens in
// Perfetto): one track per simulated CPU and one per pager layer.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]chromeEvent, 0, len(t.spans)+16)
	seen := map[int]bool{}
	for i := range t.spans {
		s := &t.spans[i]
		tid := int(s.track)
		if !seen[tid] {
			seen[tid] = true
			name, ok := trackNames[tid]
			if !ok {
				name = fmt.Sprintf("simulated CPU %d", tid)
			}
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": name},
			})
		}
		events = append(events, chromeEvent{
			Name: spanNames[s.name], Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.h0) / 1e3, Dur: float64(s.h1-s.h0) / 1e3,
			Args: map[string]any{
				"op": s.op, "parent": s.parent,
				"virt_start_ns": s.v0, "virt_dur_ns": s.v1 - s.v0,
			},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
