package main

// Benchmark-owned decorators around the layer boundaries that are already
// Go interfaces: pmap.Module / pmap.Map, core.Pager and netpager.Backend.
// Each forwards every call unchanged and records a span around the ones the
// per-layer metrics name. None of them charges the virtual clock.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"machvm/internal/core"
	"machvm/internal/pager/netpager"
	"machvm/internal/pmap"
	"machvm/internal/vmtypes"
)

// tracedModule decorates a pmap module: the physical-page operations get
// spans, Create hands out decorated maps, everything else is forwarded by
// embedding.
type tracedModule struct {
	pmap.Module
	t *tracer
}

func (m *tracedModule) Create() pmap.Map { return wrapMap(m.Module.Create(), m.t) }

func (m *tracedModule) RemoveAll(pfn vmtypes.PFN) {
	m.t.begin(nPmapRemoveAll, -1)
	m.Module.RemoveAll(pfn)
	m.t.end()
}

func (m *tracedModule) CopyOnWrite(pfn vmtypes.PFN) {
	m.t.begin(nPmapCopyOnWrite, -1)
	m.Module.CopyOnWrite(pfn)
	m.t.end()
}

func (m *tracedModule) ZeroPage(pfn vmtypes.PFN) {
	m.t.begin(nPmapZeroPage, -1)
	m.Module.ZeroPage(pfn)
	m.t.end()
}

func (m *tracedModule) CopyPage(src, dst vmtypes.PFN) {
	m.t.begin(nPmapCopyPage, -1)
	m.Module.CopyPage(src, dst)
	m.t.end()
}

func (m *tracedModule) Update() {
	m.t.begin(nPmapUpdate, -1)
	m.Module.Update()
	m.t.end()
}

// tracedMap decorates one physical map. Enter, Remove and Protect get
// spans; the software queries, the hardware walk and the lifetime calls are
// forwarded by embedding.
type tracedMap struct {
	pmap.Map
	t *tracer
}

func (m *tracedMap) Enter(va vmtypes.VA, pfn vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	m.t.begin(nPmapEnter, -1)
	m.Map.Enter(va, pfn, prot, wired)
	m.t.end()
}

func (m *tracedMap) Remove(start, end vmtypes.VA) {
	m.t.begin(nPmapRemove, -1)
	m.Map.Remove(start, end)
	m.t.end()
}

func (m *tracedMap) Protect(start, end vmtypes.VA, prot vmtypes.Prot) {
	m.t.begin(nPmapProtect, -1)
	m.Map.Protect(start, end, prot)
	m.t.end()
}

// unwrap returns the module's own map (pmap_copy needs the concrete type
// on both sides).
func (m *tracedMap) unwrap() pmap.Map { return m.Map }

// The optional Table 3-4 routines. The kernel discovers them by type
// assertion on the map, so the decorator must implement exactly the ones
// the wrapped map does: each is a mixin, and wrapMap picks the struct that
// embeds the right combination.

type rangeEnterer struct {
	re pmap.RangeEnterer
	t  *tracer
}

func (r rangeEnterer) EnterRange(va vmtypes.VA, pfns []vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	r.t.begin(nPmapEnterRange, -1)
	r.re.EnterRange(va, pfns, prot, wired)
	r.t.end()
}
func (r rangeEnterer) SuperSpan() uint64              { return r.re.SuperSpan() }
func (r rangeEnterer) SuperActive(va vmtypes.VA) bool { return r.re.SuperActive(va) }

type copier struct{ c pmap.Copier }

func (c copier) CopyMappings(dst pmap.Map, dstAddr vmtypes.VA, length uint64, srcAddr vmtypes.VA) {
	if u, ok := dst.(interface{ unwrap() pmap.Map }); ok {
		dst = u.unwrap()
	}
	c.c.CopyMappings(dst, dstAddr, length, srcAddr)
}

type pageabler struct{ p pmap.Pageabler }

func (p pageabler) Pageable(start, end vmtypes.VA, pageable bool) {
	p.p.Pageable(start, end, pageable)
}

type (
	mapR struct {
		*tracedMap
		rangeEnterer
	}
	mapC struct {
		*tracedMap
		copier
	}
	mapP struct {
		*tracedMap
		pageabler
	}
	mapRC struct {
		*tracedMap
		rangeEnterer
		copier
	}
	mapRP struct {
		*tracedMap
		rangeEnterer
		pageabler
	}
	mapCP struct {
		*tracedMap
		copier
		pageabler
	}
	mapRCP struct {
		*tracedMap
		rangeEnterer
		copier
		pageabler
	}
)

// wrapMap decorates inner, exposing the same optional interfaces it does.
func wrapMap(inner pmap.Map, t *tracer) pmap.Map {
	base := &tracedMap{Map: inner, t: t}
	re, isR := inner.(pmap.RangeEnterer)
	c, isC := inner.(pmap.Copier)
	p, isP := inner.(pmap.Pageabler)
	r := rangeEnterer{re: re, t: t}
	switch {
	case isR && isC && isP:
		return mapRCP{base, r, copier{c}, pageabler{p}}
	case isR && isC:
		return mapRC{base, r, copier{c}}
	case isR && isP:
		return mapRP{base, r, pageabler{p}}
	case isC && isP:
		return mapCP{base, copier{c}, pageabler{p}}
	case isR:
		return mapR{base, r}
	case isC:
		return mapC{base, copier{c}}
	case isP:
		return mapP{base, pageabler{p}}
	default:
		return base
	}
}

// syncCall marks a context as belonging to a pager conversation the driver
// goroutine is inside of, so an inner pager decorator knows its span nests
// on the driver's stack rather than standing alone.
type syncCall struct{}

// tracedPager decorates one layer of a pager stack.
type tracedPager struct {
	inner      core.Pager
	t          *tracer
	req, write nameID
	track      int
	// nested marks a layer that sits under another decorated pager: its
	// calls arrive either on the driver's stack (the outer layer's context
	// says so) or from a background goroutine of the outer layer.
	nested bool
	errs   atomic.Uint64
	// link, when set, publishes this layer's open spans so the decorator
	// on the far side of a connection (the netpager backend) can name its
	// parent.
	link *spanLink
}

var _ core.Pager = (*tracedPager)(nil)

func (p *tracedPager) Name() string               { return p.inner.Name() }
func (p *tracedPager) Init(obj *core.Object)      { p.inner.Init(obj) }
func (p *tracedPager) Terminate(obj *core.Object) { p.inner.Terminate(obj) }

// open starts this layer's span. Calls arriving from the kernel, or from an
// outer decorator on the driver's stack, nest there; anything else comes
// from a background goroutine and is recorded detached.
func (p *tracedPager) open(ctx context.Context, name nameID) (context.Context, *frame) {
	if !p.nested || ctx.Value(syncCall{}) != nil {
		if !p.nested {
			ctx = context.WithValue(ctx, syncCall{}, true)
		}
		return ctx, p.t.begin(name, p.track)
	}
	return ctx, p.t.beginDetached(name, p.track, nil)
}

func (p *tracedPager) close(f *frame) {
	if f == nil {
		return // the recording is over
	}
	if f.detached {
		p.t.endDetached(f)
	} else {
		p.t.end()
	}
}

func (p *tracedPager) note(err error) {
	if err != nil && !errors.Is(err, core.ErrDataUnavailable) {
		p.errs.Add(1)
	}
}

func (p *tracedPager) DataRequest(ctx context.Context, obj *core.Object, offset uint64, length int) ([]byte, error) {
	ctx, f := p.open(ctx, p.req)
	if p.link != nil && f != nil {
		p.link.set(false, offset, f)
	}
	data, err := p.inner.DataRequest(ctx, obj, offset, length)
	if p.link != nil {
		p.link.clear(false, offset)
	}
	p.close(f)
	p.note(err)
	return data, err
}

func (p *tracedPager) DataWrite(ctx context.Context, obj *core.Object, offset uint64, data []byte) error {
	ctx, f := p.open(ctx, p.write)
	if p.link != nil && f != nil {
		p.link.set(true, offset, f)
	}
	err := p.inner.DataWrite(ctx, obj, offset, data)
	if p.link != nil {
		p.link.clear(true, offset)
	}
	p.close(f)
	p.note(err)
	return err
}

// spanLink carries open netpager spans across the wire: the client-side
// decorator registers its span under (direction, offset), and the backend
// decorator — running on a server goroutine with no context to inherit —
// looks its parent up there. One object is paged over the link, so the
// offset identifies the conversation.
type spanLink struct {
	mu   sync.Mutex
	open map[linkKey]*frame
}

type linkKey struct {
	write bool
	off   uint64
}

func newSpanLink() *spanLink { return &spanLink{open: make(map[linkKey]*frame)} }

func (l *spanLink) set(write bool, off uint64, f *frame) {
	l.mu.Lock()
	l.open[linkKey{write, off}] = f
	l.mu.Unlock()
}

func (l *spanLink) clear(write bool, off uint64) {
	l.mu.Lock()
	delete(l.open, linkKey{write, off})
	l.mu.Unlock()
}

func (l *spanLink) get(write bool, off uint64) *frame {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.open[linkKey{write, off}]
}

// tracedBackend decorates the netpager.Backend behind the wire.
type tracedBackend struct {
	netpager.Backend
	t    *tracer
	link *spanLink
	errs atomic.Uint64
}

func (b *tracedBackend) DataRequest(obj, off uint64, length int) ([]byte, error) {
	f := b.t.beginDetached(nBackendRequest, trackBackend, b.link.get(false, off))
	data, err := b.Backend.DataRequest(obj, off, length)
	b.t.endDetached(f)
	if err != nil && err != netpager.ErrNoData {
		b.errs.Add(1)
	}
	return data, err
}

func (b *tracedBackend) DataWrite(obj, off uint64, data []byte) error {
	f := b.t.beginDetached(nBackendWrite, trackBackend, b.link.get(true, off))
	err := b.Backend.DataWrite(obj, off, data)
	b.t.endDetached(f)
	if err != nil {
		b.errs.Add(1)
	}
	return err
}
