package pmap

import (
	"fmt"
	"math/bits"
	"sync"

	"machvm/internal/hw"
	"machvm/internal/vmtypes"
)

// The VAX, the SUN 3 and the NS32082 all translate through a forward page
// table that Mach constructs on demand in fixed-size groups of PTEs — a VAX
// page-table page, a SUN 3 page-map entry group, an NS32082 second-level
// table — and destroys again when a group empties (§5.1). Table is that
// structure, written once; a machine describes its hardware in a TableSpec
// and keeps in its own package only what the table cannot express.

// TableSpec is the hardware description a forward-page-table machine gives
// the shared Table.
type TableSpec struct {
	Name      string     // architecture name, e.g. "VAX"
	PageSize  int        // hardware page size in bytes
	GroupPTEs int        // PTEs per table group (a power of two)
	MaxVA     vmtypes.VA // user address-space limit
	MaxFrames int        // physical addressing limit in frames; 0 means none

	// GroupBytes is the main memory one group occupies, accounted in
	// ModuleStats.TableBytes; 0 when groups live in dedicated MMU RAM.
	GroupBytes int64
	// ChargeGroup charges what constructing one group costs the machine.
	ChargeGroup func(*hw.Machine)
	// WalkLevels is the number of memory references one hardware walk
	// makes. A promoted group is resolved by its first-level entry alone,
	// so a walk that lands in one costs a single level.
	WalkLevels int64
	// ReenterIsNoop: entering a mapping identical to the one in place
	// returns at once, with no shootdown and no PV update. When false the
	// module treats it as a replacement and shoots the page down.
	ReenterIsNoop bool
}

// TableModule is the ModuleBase of a machine whose maps are Tables.
type TableModule struct {
	ModuleBase
	spec       TableSpec
	pageShift  uint   // log2 of the hardware page size
	groupShift uint   // log2 of the PTEs per group
	groupMask  uint64 // PTEs per group − 1
}

// InitTables initialises the module for the machine described by spec.
func (tm *TableModule) InitTables(spec TableSpec, m *hw.Machine, strategy Strategy) {
	if m.Mem.PageSize() != spec.PageSize {
		panic(fmt.Sprintf("%s: machine must use %d-byte hardware pages", spec.Name, spec.PageSize))
	}
	tm.InitBase(spec.Name, m, strategy, spec.MaxVA, spec.MaxFrames)
	tm.spec = spec
	tm.pageShift = uint(bits.TrailingZeros(uint(spec.PageSize)))
	tm.groupShift = uint(bits.TrailingZeros(uint(spec.GroupPTEs)))
	tm.groupMask = uint64(spec.GroupPTEs) - 1
}

type pte struct {
	pfn   vmtypes.PFN
	prot  vmtypes.Prot
	valid bool
	wired bool
}

// group is the granule at which the table is created and destroyed. With
// superpage tracking on (RangeTable), a group whose every PTE is valid with
// one uniform protection is "super": the module can treat it as one large
// mapping.
type group struct {
	ptes  []pte
	used  int
	super bool
}

// maxGroupPool bounds the per-map free list of groups.
const maxGroupPool = 8

// Table is one task's on-demand forward page table and the pmap.Map
// mechanics over it. A machine's map type embeds it (or RangeTable) and
// passes itself to Init as owner.
//
// mu is never held across a PhysDB or Shooter call.
type Table struct {
	MapCore
	mod *TableModule
	// owner is the module's map that embeds this table: the value PhysDB
	// records, so RemoveAll and CopyOnWrite call back through the
	// machine's own methods.
	owner Map

	mu         sync.Mutex
	groups     map[uint64]*group // by vpn / GroupPTEs
	resident   int
	supers     int
	trackSuper bool

	// pool recycles emptied groups within this map. Every PTE is zeroed
	// before used can reach zero, so a pooled group is indistinguishable
	// from a fresh one.
	pool  [maxGroupPool]*group
	npool int
}

// Init prepares an empty table belonging to mod; the table starts entirely
// unconstructed.
func (t *Table) Init(mod *TableModule, owner Map) {
	t.InitCore()
	t.mod = mod
	t.owner = owner
	t.groups = make(map[uint64]*group, 8)
}

// Module returns the module the table belongs to.
func (t *Table) Module() *TableModule { return t.mod }

// Prime stocks the free list with n groups carved from one allocation, so
// a map's first groups cost the host nothing: allocation counts stay flat
// from the first fault.
func (t *Table) Prime(n int) {
	per := t.mod.spec.GroupPTEs
	groups := make([]group, n)
	ptes := make([]pte, n*per)
	for i := range groups {
		groups[i].ptes = ptes[i*per : (i+1)*per : (i+1)*per]
		t.pool[t.npool] = &groups[i]
		t.npool++
	}
}

// constructLocked builds the group with index gi. The charge is made even
// for a recycled group: the hardware still hands out a zeroed table, and
// only the host-side allocation is being avoided.
func (t *Table) constructLocked(gi uint64) *group {
	var g *group
	if t.npool > 0 {
		t.npool--
		g, t.pool[t.npool] = t.pool[t.npool], nil
	} else {
		g = &group{ptes: make([]pte, t.mod.spec.GroupPTEs)}
	}
	t.groups[gi] = g
	t.mod.spec.ChargeGroup(t.mod.machine)
	if b := t.mod.spec.GroupBytes; b != 0 {
		t.mod.stats.AddTableBytes(b)
	}
	return g
}

// releaseLocked destroys the emptied group with index gi.
func (t *Table) releaseLocked(gi uint64, g *group) {
	delete(t.groups, gi)
	if b := t.mod.spec.GroupBytes; b != 0 {
		t.mod.stats.AddTableBytes(-b)
	}
	if t.npool < maxGroupPool {
		t.pool[t.npool] = g
		t.npool++
	}
}

// updateSuperLocked re-derives the group's superpage status after PTE
// changes. O(1) unless the group is full.
func (t *Table) updateSuperLocked(g *group) {
	if !t.trackSuper {
		return
	}
	want := g.used == len(g.ptes)
	if want {
		for _, e := range g.ptes[1:] {
			if e.prot != g.ptes[0].prot {
				want = false
				break
			}
		}
	}
	if want && !g.super {
		g.super = true
		t.supers++
		t.mod.stats.Promotions.Add(1)
	} else if !want {
		t.demoteLocked(g)
	}
}

// demoteLocked clears the group's superpage status.
func (t *Table) demoteLocked(g *group) {
	if g.super {
		g.super = false
		t.supers--
		t.mod.stats.Demotions.Add(1)
	}
}

// vpnRange converts [start, end), clipped to the address-space limit, to
// hardware page numbers.
func (t *Table) vpnRange(start, end vmtypes.VA) (vpn, last uint64) {
	if end > t.mod.maxVA {
		end = t.mod.maxVA
	}
	ps := t.mod.pageShift
	return uint64(start) >> ps, (uint64(end) + 1<<ps - 1) >> ps
}

// nextLocked finds the first valid PTE with page number in [vpn, end),
// skipping unconstructed groups whole. It returns a nil PTE at the end.
func (t *Table) nextLocked(vpn, end uint64) (uint64, *group, *pte) {
	mask := t.mod.groupMask
	var g *group
	for ; vpn < end; vpn++ {
		if g == nil || vpn&mask == 0 {
			if g = t.groups[vpn>>t.mod.groupShift]; g == nil {
				vpn |= mask
				continue
			}
		}
		if e := &g.ptes[vpn&mask]; e.valid {
			return vpn, g, e
		}
	}
	return end, nil, nil
}

func (t *Table) pageVA(vpn uint64) vmtypes.VA { return vmtypes.VA(vpn << t.mod.pageShift) }

func (t *Table) checkFrame(pfn vmtypes.PFN) {
	if int(pfn) >= t.mod.maxFrames {
		panic(fmt.Sprintf("%s: physical frame %d beyond the %d this MMU can address", t.mod.name, pfn, t.mod.maxFrames))
	}
}

func (t *Table) beyondLimit() {
	panic(fmt.Sprintf("%s: virtual address beyond the %dMB map limit", t.mod.name, t.mod.maxVA>>20))
}

// pteRef names a PTE a mutator changed under mu and the frame it held, for
// the pv updates and shootdowns that follow once mu is dropped. pfn is
// noPFN when the PTE keeps its frame (nothing to forget).
type pteRef struct {
	vpn uint64
	pfn vmtypes.PFN
}

const noPFN = ^vmtypes.PFN(0)

// tableBatch is how many changed PTEs Remove and Protect collect per hold
// of mu, in a buffer on their own stack.
const tableBatch = 64

// removePVs forgets the pv entries of refs, holding each block lock once per
// run of frames it covers.
func (t *Table) removePVs(refs []pteRef) {
	db := t.mod.db
	for i := 0; i < len(refs); {
		if refs[i].pfn == noPFN {
			i++
			continue
		}
		mu := db.lockOf(refs[i].pfn)
		mu.Lock()
		for blk := refs[i].pfn >> pvBlockShift; i < len(refs) && refs[i].pfn>>pvBlockShift == blk; i++ {
			db.removeLocked(refs[i].pfn, t.owner, t.pageVA(refs[i].vpn))
		}
		mu.Unlock()
	}
}

// Enter establishes one hardware mapping (pmap_enter).
func (t *Table) Enter(va vmtypes.VA, pfn vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	if va >= t.mod.maxVA {
		t.beyondLimit()
	}
	t.enterRun(uint64(va)>>t.mod.pageShift, []vmtypes.PFN{pfn}, prot, wired, !t.mod.spec.ReenterIsNoop)
}

// enterRun is the body of Enter and EnterRange: it maps pfns[i] at page
// number vpn+i with one hold of mu and one promotion check per group, then
// one hold of each pv block lock. A PTE found identical to the one wanted
// is left alone — a refault on a resident page, every TLB copy already
// correct — unless reenter is set, which makes it a replacement.
func (t *Table) enterRun(vpn uint64, pfns []vmtypes.PFN, prot vmtypes.Prot, wired, reenter bool) {
	mod := t.mod
	for _, pfn := range pfns {
		t.checkFrame(pfn)
	}
	mod.stats.Enters.Add(uint64(len(pfns)))
	mod.machine.Charge(int64(len(pfns)) * mod.machine.Cost.PTEOp)

	// One Mach page of replacements fits on the stack; only span
	// promotion over live mappings spills.
	var buf [1 << pvBlockShift]pteRef
	replaced, changes := buf[:0], 0
	for i := 0; i < len(pfns); {
		gi := (vpn + uint64(i)) >> mod.groupShift
		t.mu.Lock()
		g := t.groups[gi]
		if g == nil {
			g = t.constructLocked(gi)
		}
		before := changes
		for ; i < len(pfns) && (vpn+uint64(i))>>mod.groupShift == gi; i++ {
			e := &g.ptes[(vpn+uint64(i))&mod.groupMask]
			want := pte{pfn: pfns[i], prot: prot, valid: true, wired: wired}
			switch {
			case *e == want && !reenter:
				continue
			case !e.valid:
				g.used++
				t.resident++
			case e.pfn == want.pfn:
				replaced = append(replaced, pteRef{vpn + uint64(i), noPFN})
			default:
				replaced = append(replaced, pteRef{vpn + uint64(i), e.pfn})
			}
			*e = want
			changes++
		}
		if changes != before {
			t.updateSuperLocked(g)
		}
		t.mu.Unlock()
	}
	if changes == 0 {
		return
	}
	t.removePVs(replaced)
	for _, r := range replaced {
		mod.shooter.InvalidatePage(t.Space(), r.vpn, t.ActiveCPUs(), true)
	}
	mod.db.AddRange(pfns, t.owner, t.pageVA(vpn), 1<<mod.pageShift)
}

// Remove invalidates mappings in [start, end) (pmap_remove).
func (t *Table) Remove(start, end vmtypes.VA) {
	mod := t.mod
	mod.stats.Removes.Add(1)
	var buf [tableBatch]pteRef
	for vpn, last := t.vpnRange(start, end); vpn < last; {
		refs := buf[:0]
		t.mu.Lock()
		for len(refs) < len(buf) {
			next, g, e := t.nextLocked(vpn, last)
			if vpn = next + 1; e == nil {
				break
			}
			refs = append(refs, pteRef{next, e.pfn})
			*e = pte{}
			g.used--
			t.resident--
			t.demoteLocked(g)
			if g.used == 0 {
				t.releaseLocked(next>>mod.groupShift, g)
			}
		}
		t.mu.Unlock()

		mod.machine.Charge(int64(len(refs)) * mod.machine.Cost.PTEOp)
		t.removePVs(refs)
		for _, r := range refs {
			mod.shooter.InvalidatePage(t.Space(), r.vpn, t.ActiveCPUs(), true)
		}
	}
}

// Protect reduces protection on [start, end) (pmap_protect).
func (t *Table) Protect(start, end vmtypes.VA, prot vmtypes.Prot) {
	mod := t.mod
	mod.stats.Protects.Add(1)
	var buf [tableBatch]uint64
	for vpn, last := t.vpnRange(start, end); vpn < last; {
		n := 0
		t.mu.Lock()
		for n < len(buf) {
			next, g, e := t.nextLocked(vpn, last)
			if vpn = next + 1; e == nil {
				break
			}
			if np := e.prot.Intersect(prot); np != e.prot {
				e.prot = np
				t.updateSuperLocked(g)
				buf[n] = next
				n++
			}
		}
		t.mu.Unlock()

		mod.machine.Charge(int64(n) * mod.machine.Cost.PTEOp)
		for _, v := range buf[:n] {
			mod.shooter.InvalidatePage(t.Space(), v, t.ActiveCPUs(), false)
		}
	}
}

// Walk is the hardware translation: WalkLevels memory references through
// the table, one when the group is promoted.
func (t *Table) Walk(va vmtypes.VA) (vmtypes.PFN, vmtypes.Prot, bool) {
	mod := t.mod
	mod.stats.Walks.Add(1)
	levels := mod.spec.WalkLevels
	var e pte
	if va < mod.maxVA {
		vpn := uint64(va) >> mod.pageShift
		t.mu.Lock()
		if g := t.groups[vpn>>mod.groupShift]; g != nil {
			e = g.ptes[vpn&mod.groupMask]
			if g.super {
				levels = 1
			}
		}
		t.mu.Unlock()
	}
	mod.machine.Charge(levels * mod.machine.Cost.WalkLevel)
	if !e.valid {
		mod.stats.WalkMisses.Add(1)
		return 0, 0, false
	}
	return e.pfn, e.prot, true
}

// Extract returns the frame mapped at va (pmap_extract).
func (t *Table) Extract(va vmtypes.VA) (vmtypes.PFN, bool) {
	if va >= t.mod.maxVA {
		return 0, false
	}
	vpn := uint64(va) >> t.mod.pageShift
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.groups[vpn>>t.mod.groupShift]
	if g == nil || !g.ptes[vpn&t.mod.groupMask].valid {
		return 0, false
	}
	return g.ptes[vpn&t.mod.groupMask].pfn, true
}

// Access reports whether va is mapped (pmap_access).
func (t *Table) Access(va vmtypes.VA) bool {
	_, ok := t.Extract(va)
	return ok
}

// Next returns the lowest mapping in [va, end): its page address, frame
// and protection. A machine's pmap_copy steps through a range with it.
func (t *Table) Next(va, end vmtypes.VA) (vmtypes.VA, vmtypes.PFN, vmtypes.Prot, bool) {
	vpn, last := t.vpnRange(va, end)
	t.mu.Lock()
	defer t.mu.Unlock()
	vpn, _, e := t.nextLocked(vpn, last)
	if e == nil {
		return 0, 0, 0, false
	}
	return t.pageVA(vpn), e.pfn, e.prot, true
}

// Activate loads this map on a CPU (pmap_activate).
func (t *Table) Activate(cpu *hw.CPU) {
	t.mod.machine.Charge(t.mod.machine.Cost.ContextLoad)
	t.ActivateOn(cpu)
}

// Deactivate unloads this map (pmap_deactivate). None of these MMUs tags
// its translation buffer, so a context switch flushes the task's entries.
func (t *Table) Deactivate(cpu *hw.CPU) {
	t.DeactivateOn(cpu)
	t.mod.machine.Charge(t.mod.machine.Cost.TLBFlushAll)
	cpu.TLB.FlushSpace(t.Space())
}

// Collect throws away all non-wired mappings and the groups they leave
// empty — legal because everything can be reconstructed at fault time.
func (t *Table) Collect() {
	t.mod.stats.Collects.Add(1)
	t.Drain(true)
}

// Destroy drops a reference and frees the table when none remain
// (pmap_destroy).
func (t *Table) Destroy() {
	if t.Release() {
		t.Drain(false)
	}
}

// Drain removes every mapping (every non-wired one if keepWired), destroys
// the groups left empty, and flushes the space from the active CPUs. It is
// Collect and Destroy without their bookkeeping, for machines that lose
// hardware state in other ways too. Without keepWired the map is dying, so
// the free list goes as well: whatever still points at a destroyed map (an
// exited task's handle, a vacated PV slot) must not pin table memory.
func (t *Table) Drain(keepWired bool) {
	mod := t.mod
	t.mu.Lock()
	victims := make([]pteRef, 0, t.resident)
	for gi, g := range t.groups {
		for i := range g.ptes {
			e := &g.ptes[i]
			if e.valid && !(keepWired && e.wired) {
				victims = append(victims, pteRef{gi<<mod.groupShift + uint64(i), e.pfn})
				*e = pte{}
				g.used--
				t.resident--
			}
		}
		if g.used != len(g.ptes) {
			t.demoteLocked(g)
		}
		if g.used == 0 {
			t.releaseLocked(gi, g)
		}
	}
	if !keepWired {
		t.pool, t.npool = [maxGroupPool]*group{}, 0
	}
	t.mu.Unlock()
	t.removePVs(victims)
	mod.shooter.InvalidateSpace(t.Space(), t.ActiveCPUs())
}

// ResidentCount returns the number of hardware mappings held.
func (t *Table) ResidentCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.resident
}

// RangeTable is a Table that also implements the optional RangeEnterer and
// keeps the superpage bookkeeping: groups are promoted when they become
// fully and uniformly mapped and demoted by any operation that breaks that.
// A machine opts in by embedding RangeTable instead of Table.
type RangeTable struct{ Table }

// Init prepares an empty table with superpage tracking on.
func (t *RangeTable) Init(mod *TableModule, owner Map) {
	t.Table.Init(mod, owner)
	t.trackSuper = true
}

// EnterRange establishes a run of consecutive mappings with one lock hold
// and one promotion check per group rather than per PTE.
func (t *RangeTable) EnterRange(va vmtypes.VA, pfns []vmtypes.PFN, prot vmtypes.Prot, wired bool) {
	if len(pfns) == 0 {
		return
	}
	mod := t.mod
	if uint64(va)&(1<<mod.pageShift-1) != 0 {
		panic(mod.name + ": EnterRange address not hardware-page aligned")
	}
	if va+vmtypes.VA(len(pfns))<<mod.pageShift > mod.maxVA {
		t.beyondLimit()
	}
	t.enterRun(uint64(va)>>mod.pageShift, pfns, prot, wired, false)
	mod.stats.RangeEnters.Add(1)
}

// SuperSpan returns the promotion granule: the span one group maps.
func (t *RangeTable) SuperSpan() uint64 {
	return uint64(t.mod.spec.GroupPTEs) << t.mod.pageShift
}

// SuperActive reports whether the group containing va is promoted.
func (t *RangeTable) SuperActive(va vmtypes.VA) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.groups[uint64(va)>>t.mod.pageShift>>t.mod.groupShift]
	return g != nil && g.super
}

// SuperCount returns the number of currently promoted groups.
func (t *RangeTable) SuperCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.supers
}

// CheckSuperInvariants verifies the bookkeeping the promotion machinery
// relies on: each group's used matches its count of valid PTEs, a group is
// marked super exactly when fully mapped with uniform protection, and the
// map-wide counter matches the marked groups.
func (t *RangeTable) CheckSuperInvariants() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	name := t.mod.name
	supers := 0
	for gi, g := range t.groups {
		used := 0
		mixed := false
		var p0 vmtypes.Prot
		for _, e := range g.ptes {
			if !e.valid {
				continue
			}
			if used == 0 {
				p0 = e.prot
			} else if e.prot != p0 {
				mixed = true
			}
			used++
		}
		if used != g.used {
			return fmt.Errorf("%s: group %d records used=%d but holds %d valid PTEs", name, gi, g.used, used)
		}
		if uniform := used == len(g.ptes) && !mixed; g.super != uniform {
			return fmt.Errorf("%s: group %d super=%v but full-and-uniform=%v", name, gi, g.super, uniform)
		}
		if g.super {
			supers++
		}
	}
	if supers != t.supers {
		return fmt.Errorf("%s: super count=%d but %d groups are marked super", name, t.supers, supers)
	}
	return nil
}
