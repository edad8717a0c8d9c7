package pmap_test

// Conformance tests run every machine-dependent module through the same
// contract: the machine-independent layer must be able to treat all pmaps
// identically (the paper's whole point), so any behaviour the MI layer
// relies on is tested here against all five machines.

import (
	"fmt"
	"testing"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/ns32082"
	"machvm/internal/pmap/rtpc"
	"machvm/internal/pmap/sun3"
	"machvm/internal/pmap/tlbonly"
	"machvm/internal/pmap/vax"
	"machvm/internal/vmtypes"
)

type testArch struct {
	name       string
	hwPageSize int
	frames     int
	newModule  func(*hw.Machine, pmap.Strategy) pmap.Module
	cost       hw.CostModel
}

func allArchs() []testArch {
	return []testArch{
		{"vax", vax.HWPageSize, 4096, func(m *hw.Machine, s pmap.Strategy) pmap.Module { return vax.New(m, s) }, vax.DefaultCost()},
		{"rtpc", rtpc.HWPageSize, 2048, func(m *hw.Machine, s pmap.Strategy) pmap.Module { return rtpc.New(m, s) }, rtpc.DefaultCost()},
		{"sun3", sun3.HWPageSize, 1024, func(m *hw.Machine, s pmap.Strategy) pmap.Module { return sun3.New(m, s) }, sun3.DefaultCost()},
		{"ns32082", ns32082.HWPageSize, 4096, func(m *hw.Machine, s pmap.Strategy) pmap.Module { return ns32082.New(m, s) }, ns32082.DefaultCost()},
		{"tlbonly", tlbonly.HWPageSize, 2048, func(m *hw.Machine, s pmap.Strategy) pmap.Module { return tlbonly.New(m, s) }, tlbonly.DefaultCost()},
	}
}

func newTestMachine(a testArch, cpus int) (*hw.Machine, pmap.Module) {
	m := hw.NewMachine(hw.Config{
		Cost:       a.cost,
		HWPageSize: a.hwPageSize,
		PhysFrames: a.frames,
		CPUs:       cpus,
		TLBSize:    64,
	})
	return m, a.newModule(m, pmap.ShootImmediate)
}

func forEachArch(t *testing.T, fn func(t *testing.T, a testArch)) {
	for _, a := range allArchs() {
		t.Run(a.name, func(t *testing.T) { fn(t, a) })
	}
}

func TestEnterExtractRemove(t *testing.T) {
	forEachArch(t, func(t *testing.T, a testArch) {
		_, mod := newTestMachine(a, 1)
		pm := mod.Create()
		defer pm.Destroy()
		ps := vmtypes.VA(a.hwPageSize)

		pm.Enter(3*ps, 7, vmtypes.ProtDefault, false)
		if pfn, ok := pm.Extract(3 * ps); !ok || pfn != 7 {
			t.Fatalf("Extract = %d,%v; want 7,true", pfn, ok)
		}
		if !pm.Access(3 * ps) {
			t.Fatal("Access should see the mapping")
		}
		if pm.Access(4 * ps) {
			t.Fatal("Access should not see an unmapped page")
		}
		if got := pm.ResidentCount(); got != 1 {
			t.Fatalf("ResidentCount = %d; want 1", got)
		}

		pm.Remove(3*ps, 4*ps)
		if pm.Access(3 * ps) {
			t.Fatal("mapping should be gone after Remove")
		}
		if got := pm.ResidentCount(); got != 0 {
			t.Fatalf("ResidentCount after Remove = %d; want 0", got)
		}
	})
}

func TestWalkMatchesExtract(t *testing.T) {
	forEachArch(t, func(t *testing.T, a testArch) {
		_, mod := newTestMachine(a, 1)
		pm := mod.Create()
		defer pm.Destroy()
		ps := vmtypes.VA(a.hwPageSize)

		for i := vmtypes.PFN(1); i < 20; i++ {
			pm.Enter(vmtypes.VA(i)*ps, i, vmtypes.ProtRead, false)
		}
		for i := vmtypes.PFN(1); i < 20; i++ {
			pfn, prot, ok := pm.Walk(vmtypes.VA(i) * ps)
			if !ok || pfn != i {
				t.Fatalf("Walk(%d) = %d,%v; want %d,true", i, pfn, ok, i)
			}
			if prot != vmtypes.ProtRead {
				t.Fatalf("Walk prot = %v; want r--", prot)
			}
		}
		if _, _, ok := pm.Walk(100 * ps); ok {
			t.Fatal("Walk of unmapped page should miss")
		}
	})
}

func TestProtectReduces(t *testing.T) {
	forEachArch(t, func(t *testing.T, a testArch) {
		_, mod := newTestMachine(a, 1)
		pm := mod.Create()
		defer pm.Destroy()
		ps := vmtypes.VA(a.hwPageSize)

		pm.Enter(ps, 5, vmtypes.ProtDefault, false)
		pm.Protect(ps, 2*ps, vmtypes.ProtRead)
		_, prot, ok := pm.Walk(ps)
		if !ok {
			t.Fatal("mapping vanished on Protect")
		}
		if prot.Allows(vmtypes.ProtWrite) {
			t.Fatalf("prot = %v; want write revoked", prot)
		}
	})
}

func TestRemoveAllAndCopyOnWrite(t *testing.T) {
	forEachArch(t, func(t *testing.T, a testArch) {
		if a.name == "rtpc" {
			// The RT allows only one mapping per physical page;
			// multi-map sharing is exercised by its own alias test.
			t.Skip("rtpc cannot hold two mappings of one frame")
		}
		_, mod := newTestMachine(a, 1)
		pm1 := mod.Create()
		pm2 := mod.Create()
		defer pm1.Destroy()
		defer pm2.Destroy()
		ps := vmtypes.VA(a.hwPageSize)

		pm1.Enter(ps, 9, vmtypes.ProtDefault, false)
		pm2.Enter(5*ps, 9, vmtypes.ProtDefault, false)

		mod.CopyOnWrite(9)
		for _, pm := range []pmap.Map{pm1, pm2} {
			va := ps
			if pm == pm2 {
				va = 5 * ps
			}
			_, prot, ok := pm.Walk(va)
			if !ok || prot.Allows(vmtypes.ProtWrite) {
				t.Fatalf("CopyOnWrite left prot=%v ok=%v", prot, ok)
			}
		}

		mod.RemoveAll(9)
		if pm1.Access(ps) || pm2.Access(5*ps) {
			t.Fatal("RemoveAll left a mapping behind")
		}
	})
}

func TestModRefBits(t *testing.T) {
	forEachArch(t, func(t *testing.T, a testArch) {
		_, mod := newTestMachine(a, 1)
		if mod.IsModified(3) || mod.IsReferenced(3) {
			t.Fatal("fresh frame should be clean")
		}
		mod.MarkAccess(3, false)
		if !mod.IsReferenced(3) || mod.IsModified(3) {
			t.Fatal("read access should set only the reference bit")
		}
		mod.MarkAccess(3, true)
		if !mod.IsModified(3) {
			t.Fatal("write access should set the modify bit")
		}
		mod.ClearModify(3)
		mod.ClearReference(3)
		if mod.IsModified(3) || mod.IsReferenced(3) {
			t.Fatal("clear should clear")
		}
	})
}

func TestCollectForgetsButKeepsWired(t *testing.T) {
	forEachArch(t, func(t *testing.T, a testArch) {
		_, mod := newTestMachine(a, 1)
		pm := mod.Create()
		defer pm.Destroy()
		ps := vmtypes.VA(a.hwPageSize)

		pm.Enter(ps, 1, vmtypes.ProtDefault, false)
		pm.Enter(2*ps, 2, vmtypes.ProtDefault, true) // wired
		pm.Collect()
		if pm.Access(ps) {
			t.Fatal("Collect should discard non-wired mappings")
		}
		if !pm.Access(2 * ps) {
			t.Fatal("Collect must keep wired mappings")
		}
	})
}

func TestAccessThroughTLB(t *testing.T) {
	forEachArch(t, func(t *testing.T, a testArch) {
		machine, mod := newTestMachine(a, 1)
		pm := mod.Create()
		defer pm.Destroy()
		cpu := machine.CPU(0)
		pm.Activate(cpu)
		ps := vmtypes.VA(a.hwPageSize)

		// Unmapped access faults.
		res := pmap.Access(mod, cpu, pm, ps, vmtypes.ProtRead)
		if res.Fault != vmtypes.FaultTranslation {
			t.Fatalf("fault = %v; want translation", res.Fault)
		}

		pm.Enter(ps, 3, vmtypes.ProtDefault, false)
		res = pmap.Access(mod, cpu, pm, ps, vmtypes.ProtWrite)
		if res.Fault != vmtypes.FaultNone || res.PFN != 3 {
			t.Fatalf("access = %+v; want pfn 3 no fault", res)
		}
		if res.TLBHit {
			t.Fatal("first access should not hit the TLB")
		}
		res = pmap.Access(mod, cpu, pm, ps, vmtypes.ProtWrite)
		if !res.TLBHit {
			t.Fatal("second access should hit the TLB")
		}
		if !mod.IsModified(3) {
			t.Fatal("write access should mark the frame modified")
		}

		// Protection fault on read-only mapping.
		pm.Protect(ps, 2*ps, vmtypes.ProtRead)
		res = pmap.Access(mod, cpu, pm, ps, vmtypes.ProtWrite)
		if res.Fault != vmtypes.FaultProtection {
			t.Fatalf("fault = %v; want protection", res.Fault)
		}
	})
}

func TestShootdownStrategies(t *testing.T) {
	for _, strategy := range []pmap.Strategy{pmap.ShootImmediate, pmap.ShootDeferred, pmap.ShootLazy} {
		t.Run(strategy.String(), func(t *testing.T) {
			a := allArchs()[4] // tlbonly: simplest module
			machine := hw.NewMachine(hw.Config{
				Cost:       a.cost,
				HWPageSize: a.hwPageSize,
				PhysFrames: a.frames,
				CPUs:       4,
				TLBSize:    64,
			})
			mod := a.newModule(machine, strategy)
			pm := mod.Create()
			defer pm.Destroy()
			ps := vmtypes.VA(a.hwPageSize)
			for _, cpu := range machine.CPUs() {
				pm.Activate(cpu)
			}
			pm.Enter(ps, 3, vmtypes.ProtDefault, false)
			// Warm every CPU's TLB.
			for _, cpu := range machine.CPUs() {
				if res := pmap.Access(mod, cpu, pm, ps, vmtypes.ProtRead); res.Fault != vmtypes.FaultNone {
					t.Fatalf("warmup fault on cpu %d: %v", cpu.ID, res.Fault)
				}
			}
			before := machine.IPIsSent()
			pm.Remove(ps, 2*ps)
			switch strategy {
			case pmap.ShootImmediate:
				if machine.IPIsSent() == before {
					t.Fatal("immediate strategy should send IPIs")
				}
			case pmap.ShootDeferred, pmap.ShootLazy:
				if machine.IPIsSent() != before {
					t.Fatal("deferred/lazy removal must not send IPIs")
				}
				// Until the tick, remote TLBs may be stale; after
				// Update they must not be.
				mod.Update()
			}
			for _, cpu := range machine.CPUs() {
				if res := pmap.Access(mod, cpu, pm, ps, vmtypes.ProtRead); res.Fault == vmtypes.FaultNone {
					t.Fatalf("cpu %d still translates a removed page under %v", cpu.ID, strategy)
				}
			}
		})
	}
}

func TestRTAliasReplacement(t *testing.T) {
	machine := hw.NewMachine(hw.Config{
		Cost:       rtpc.DefaultCost(),
		HWPageSize: rtpc.HWPageSize,
		PhysFrames: 1024,
		CPUs:       1,
		TLBSize:    64,
	})
	mod := rtpc.New(machine, pmap.ShootImmediate)
	pm1 := mod.Create()
	pm2 := mod.Create()
	defer pm1.Destroy()
	defer pm2.Destroy()
	ps := vmtypes.VA(rtpc.HWPageSize)

	pm1.Enter(ps, 9, vmtypes.ProtDefault, false)
	if !pm1.Access(ps) {
		t.Fatal("pm1 mapping missing")
	}
	// A second task mapping the same frame evicts the first mapping:
	// only one valid mapping per physical page.
	pm2.Enter(7*ps, 9, vmtypes.ProtDefault, false)
	if pm1.Access(ps) {
		t.Fatal("RT must have evicted pm1's mapping of frame 9")
	}
	if !pm2.Access(7 * ps) {
		t.Fatal("pm2 mapping missing")
	}
	if got := mod.Stats().AliasReplaces.Load(); got != 1 {
		t.Fatalf("AliasReplaces = %d; want 1", got)
	}
}

func TestSun3ContextStealing(t *testing.T) {
	machine := hw.NewMachine(hw.Config{
		Cost:       sun3.DefaultCost(),
		HWPageSize: sun3.HWPageSize,
		PhysFrames: 1024,
		CPUs:       1,
		TLBSize:    64,
	})
	mod := sun3.New(machine, pmap.ShootImmediate)
	cpu := machine.CPU(0)
	ps := vmtypes.VA(sun3.HWPageSize)

	maps := make([]pmap.Map, sun3.NumContexts+2)
	for i := range maps {
		maps[i] = mod.Create()
		maps[i].Activate(cpu)
		maps[i].Enter(ps, vmtypes.PFN(i+1), vmtypes.ProtDefault, false)
		maps[i].Deactivate(cpu)
	}
	if got := mod.ContextSteals(); got != 2 {
		t.Fatalf("ContextSteals = %d; want 2", got)
	}
	// The two earliest maps lost their contexts and with them their
	// loaded translations.
	stolen := 0
	for _, m := range maps {
		if !m.Access(ps) {
			stolen++
		}
	}
	if stolen != 2 {
		t.Fatalf("%d maps lost hardware state; want 2", stolen)
	}
	for _, m := range maps {
		m.Destroy()
	}
}

func TestNS32082Limits(t *testing.T) {
	machine := hw.NewMachine(hw.Config{
		Cost:       ns32082.DefaultCost(),
		HWPageSize: ns32082.HWPageSize,
		PhysFrames: (ns32082.MaxPhysBytes / ns32082.HWPageSize) + 100,
		CPUs:       1,
		TLBSize:    64,
	})
	mod := ns32082.New(machine, pmap.ShootImmediate)
	if mod.MaxVA() != ns32082.MaxUserVA {
		t.Fatalf("MaxVA = %d; want 16MB", mod.MaxVA())
	}
	if mod.MaxFrames() != ns32082.MaxPhysBytes/ns32082.HWPageSize {
		t.Fatalf("MaxFrames = %d; want the 32MB cap", mod.MaxFrames())
	}
	pm := mod.Create()
	defer pm.Destroy()
	mustPanic(t, "VA beyond 16MB", func() {
		pm.Enter(ns32082.MaxUserVA, 1, vmtypes.ProtRead, false)
	})
	mustPanic(t, "frame beyond 32MB", func() {
		pm.Enter(0, vmtypes.PFN(mod.MaxFrames()), vmtypes.ProtRead, false)
	})
}

func TestNS32082RMWBugAndWorkaround(t *testing.T) {
	machine := hw.NewMachine(hw.Config{
		Cost:       ns32082.DefaultCost(),
		HWPageSize: ns32082.HWPageSize,
		PhysFrames: 1024,
		CPUs:       1,
		TLBSize:    64,
	})
	mod := ns32082.New(machine, pmap.ShootImmediate)
	pm := mod.Create()
	defer pm.Destroy()
	cpu := machine.CPU(0)
	pm.Activate(cpu)
	ps := vmtypes.VA(ns32082.HWPageSize)

	pm.Enter(ps, 3, vmtypes.ProtRead, false)
	res := pmap.Access(mod, cpu, pm, ps, vmtypes.ProtWrite)
	if res.Fault != vmtypes.FaultProtection {
		t.Fatalf("fault = %v; want protection", res.Fault)
	}
	// The chip bug: the write fault is *reported* as a read fault.
	if res.Reported != vmtypes.ProtRead {
		t.Fatalf("reported = %v; want read (the chip bug)", res.Reported)
	}
	// The workaround: a reported read fault on a readable mapping must
	// really be a write.
	if got := mod.CorrectFaultAccess(res.Reported, res.MappingProt); got != vmtypes.ProtWrite {
		t.Fatalf("CorrectFaultAccess = %v; want write", got)
	}
}

func TestTableMemoryAccounting(t *testing.T) {
	// The VAX constructs page tables on demand and frees them; the RT's
	// inverted table is fixed-size regardless of address-space use. This
	// is the §5.1 space comparison.
	machineV := hw.NewMachine(hw.Config{Cost: vax.DefaultCost(), HWPageSize: vax.HWPageSize, PhysFrames: 4096, CPUs: 1})
	modV := vax.New(machineV, pmap.ShootImmediate)
	base := modV.Stats().TableBytes.Load()
	pmV := modV.Create()
	ps := vmtypes.VA(vax.HWPageSize)
	for i := 0; i < 1000; i++ {
		pmV.Enter(vmtypes.VA(i)*ps, vmtypes.PFN(i%4000), vmtypes.ProtDefault, false)
	}
	grown := modV.Stats().TableBytes.Load()
	if grown <= base {
		t.Fatal("VAX table memory should grow with mappings")
	}
	pmV.Destroy()
	if got := modV.Stats().TableBytes.Load(); got != base {
		t.Fatalf("VAX table memory after destroy = %d; want %d", got, base)
	}

	machineR := hw.NewMachine(hw.Config{Cost: rtpc.DefaultCost(), HWPageSize: rtpc.HWPageSize, PhysFrames: 2048, CPUs: 1})
	modR := rtpc.New(machineR, pmap.ShootImmediate)
	fixed := modR.Stats().TableBytes.Load()
	pmR := modR.Create()
	for i := 0; i < 1000; i++ {
		pmR.Enter(vmtypes.VA(i)*vmtypes.VA(rtpc.HWPageSize), vmtypes.PFN(i), vmtypes.ProtDefault, false)
	}
	if got := modR.Stats().TableBytes.Load(); got != fixed {
		t.Fatalf("RT table memory grew to %d; the inverted table is fixed at %d", got, fixed)
	}
	pmR.Destroy()
}

// enterRange establishes a run of mappings the way the machine-independent
// layer does: one EnterRange when the module supports it, a per-page loop
// otherwise. Conformance: both paths must produce indistinguishable maps.
func enterRange(pm pmap.Map, va vmtypes.VA, pfns []vmtypes.PFN, ps vmtypes.VA, prot vmtypes.Prot, wired bool) {
	if re, ok := pm.(pmap.RangeEnterer); ok {
		re.EnterRange(va, pfns, prot, wired)
		return
	}
	for i, pfn := range pfns {
		pm.Enter(va+vmtypes.VA(i)*ps, pfn, prot, wired)
	}
}

// superMap is the introspection surface the superpage modules export for
// tests and invariant walkers.
type superMap interface {
	pmap.RangeEnterer
	SuperCount() int
	CheckSuperInvariants() error
}

func checkSuperInvariants(t *testing.T, pm pmap.Map) {
	t.Helper()
	if sm, ok := pm.(superMap); ok {
		if err := sm.CheckSuperInvariants(); err != nil {
			t.Fatalf("superpage invariants: %v", err)
		}
	}
}

// TestEnterRangeMatchesEnter runs every module through the MI layer's two
// range paths: whatever EnterRange (or its per-page fallback) established
// must be indistinguishable from individual Enter calls through
// Walk/Extract/Access, and sub-range Remove must behave identically —
// including demoting any promoted span rather than over-removing.
func TestEnterRangeMatchesEnter(t *testing.T) {
	forEachArch(t, func(t *testing.T, a testArch) {
		_, mod := newTestMachine(a, 1)
		perPage := mod.Create()
		ranged := mod.Create()
		defer perPage.Destroy()
		defer ranged.Destroy()
		ps := vmtypes.VA(a.hwPageSize)
		const n = 16
		base := vmtypes.VA(32) * ps

		// Distinct frames per map so the RT PC's one-mapping-per-frame
		// rule cannot couple the two maps.
		var pfnsA, pfnsB []vmtypes.PFN
		for i := 0; i < n; i++ {
			pfnsA = append(pfnsA, vmtypes.PFN(1+i))
			pfnsB = append(pfnsB, vmtypes.PFN(101+i))
		}
		for i, pfn := range pfnsA {
			perPage.Enter(base+vmtypes.VA(i)*ps, pfn, vmtypes.ProtDefault, false)
		}
		enterRange(ranged, base, pfnsB, ps, vmtypes.ProtDefault, false)
		checkSuperInvariants(t, ranged)

		for i := 0; i < n; i++ {
			va := base + vmtypes.VA(i)*ps
			_, protA, okA := perPage.Walk(va)
			pfnB, protB, okB := ranged.Walk(va)
			if !okB {
				// A module that may forget (tlbonly) must forget from both
				// paths alike; a hit on the per-page map with a miss on the
				// ranged map would make the paths distinguishable.
				if okA {
					t.Fatalf("page %d: per-page path translates, range path lost it", i)
				}
				continue
			}
			if pfnB != pfnsB[i] {
				t.Fatalf("page %d: range path maps to %d, want %d", i, pfnB, pfnsB[i])
			}
			if okA && protA != protB {
				t.Fatalf("page %d: prot differs, per-page %v vs range %v", i, protA, protB)
			}
			if got, ok := ranged.Extract(va); !ok || got != pfnsB[i] {
				t.Fatalf("page %d: Extract = %d,%v; want %d,true", i, got, ok, pfnsB[i])
			}
		}

		// Sub-range removal must behave identically on both paths.
		perPage.Remove(base+4*ps, base+8*ps)
		ranged.Remove(base+4*ps, base+8*ps)
		checkSuperInvariants(t, ranged)
		for i := 0; i < n; i++ {
			va := base + vmtypes.VA(i)*ps
			inHole := i >= 4 && i < 8
			if inHole && (perPage.Access(va) || ranged.Access(va)) {
				t.Fatalf("page %d survived Remove", i)
			}
			if !inHole && ranged.Access(va) != perPage.Access(va) {
				t.Fatalf("page %d: Access disagrees between paths after Remove", i)
			}
		}
	})
}

// TestModuleSuperpageLifecycle drives the two superpage modules (vax
// page-table chunks, sun3 PMEG segments) through promotion and every
// demotion trigger, with the invariant walker run after each step.
func TestModuleSuperpageLifecycle(t *testing.T) {
	forEachArch(t, func(t *testing.T, a testArch) {
		_, mod := newTestMachine(a, 1)
		pm := mod.Create()
		defer pm.Destroy()
		sm, ok := pm.(superMap)
		if !ok {
			t.Skipf("%s has no superpage support (per-page fallback covered elsewhere)", a.name)
		}
		ps := vmtypes.VA(a.hwPageSize)
		span := vmtypes.VA(sm.SuperSpan())
		n := int(span / ps)
		base := 2 * span

		pfns := make([]vmtypes.PFN, n)
		for i := range pfns {
			pfns[i] = vmtypes.PFN(1 + i)
		}
		sm.EnterRange(base, pfns, vmtypes.ProtDefault, false)
		checkSuperInvariants(t, pm)
		if !sm.SuperActive(base) {
			t.Fatal("full uniform EnterRange did not promote the granule")
		}
		if sm.SuperCount() == 0 {
			t.Fatal("SuperCount = 0 after promotion")
		}
		// Promoted translations are still per-page correct.
		for i := 0; i < n; i++ {
			if pfn, _, ok := pm.Walk(base + vmtypes.VA(i)*ps); !ok || pfn != pfns[i] {
				t.Fatalf("promoted page %d: Walk = %d,%v; want %d,true", i, pfn, ok, pfns[i])
			}
		}

		// Demotion trigger 1: non-uniform protection.
		pm.Protect(base, base+ps, vmtypes.ProtRead)
		checkSuperInvariants(t, pm)
		if sm.SuperActive(base) {
			t.Fatal("granule still promoted after partial Protect")
		}
		if _, prot, ok := pm.Walk(base); !ok || prot.Allows(vmtypes.ProtWrite) {
			t.Fatalf("protected page: Walk = %v,%v; want read-only hit", prot, ok)
		}
		if _, prot, ok := pm.Walk(base + ps); !ok || !prot.Allows(vmtypes.ProtWrite) {
			t.Fatalf("neighbor lost write on demotion: %v,%v", prot, ok)
		}

		// Demotion trigger 2: partial Remove of a promoted granule.
		base2 := base + span
		sm.EnterRange(base2, pfns, vmtypes.ProtDefault, false)
		checkSuperInvariants(t, pm)
		if !sm.SuperActive(base2) {
			t.Fatal("second granule did not promote")
		}
		pm.Remove(base2, base2+ps)
		checkSuperInvariants(t, pm)
		if sm.SuperActive(base2) {
			t.Fatal("granule still promoted after partial Remove")
		}
		if pm.Access(base2) {
			t.Fatal("removed page still translates")
		}
		if !pm.Access(base2 + ps) {
			t.Fatal("demotion dropped a neighbor that was not removed")
		}

		// Collect drops unwired state (demoting as needed)...
		pm.Collect()
		checkSuperInvariants(t, pm)
		// ...but a wired promoted granule survives Collect whole.
		base3 := base2 + span
		sm.EnterRange(base3, pfns, vmtypes.ProtDefault, true)
		checkSuperInvariants(t, pm)
		pm.Collect()
		checkSuperInvariants(t, pm)
		for i := 0; i < n; i++ {
			if !pm.Access(base3 + vmtypes.VA(i)*ps) {
				t.Fatalf("Collect dropped wired page %d of a promoted granule", i)
			}
		}
	})
}

// TestRangeOpsUnderDeferredShootdown exercises promotion and demotion with
// the deferred shootdown strategy on multiple CPUs: removing a promoted
// granule queues per-CPU invalidations without IPIs, and after pmap_update
// no CPU may still translate through the dead span.
func TestRangeOpsUnderDeferredShootdown(t *testing.T) {
	for _, a := range allArchs() {
		t.Run(a.name, func(t *testing.T) {
			machine := hw.NewMachine(hw.Config{
				Cost:       a.cost,
				HWPageSize: a.hwPageSize,
				PhysFrames: a.frames,
				CPUs:       4,
				TLBSize:    64,
			})
			mod := a.newModule(machine, pmap.ShootDeferred)
			pm := mod.Create()
			defer pm.Destroy()
			sm, ok := pm.(superMap)
			if !ok {
				t.Skipf("%s has no range support", a.name)
			}
			for _, cpu := range machine.CPUs() {
				pm.Activate(cpu)
			}
			ps := vmtypes.VA(a.hwPageSize)
			span := vmtypes.VA(sm.SuperSpan())
			n := int(span / ps)
			base := 2 * span
			pfns := make([]vmtypes.PFN, n)
			for i := range pfns {
				pfns[i] = vmtypes.PFN(1 + i)
			}
			sm.EnterRange(base, pfns, vmtypes.ProtDefault, false)
			if !sm.SuperActive(base) {
				t.Fatal("granule did not promote")
			}
			// Warm every CPU's TLB through the promoted mapping.
			for _, cpu := range machine.CPUs() {
				if res := pmap.Access(mod, cpu, pm, base, vmtypes.ProtRead); res.Fault != vmtypes.FaultNone {
					t.Fatalf("warmup fault on cpu %d: %v", cpu.ID, res.Fault)
				}
			}
			before := machine.IPIsSent()
			pm.Remove(base, base+span)
			checkSuperInvariants(t, pm)
			if machine.IPIsSent() != before {
				t.Fatal("deferred strategy sent IPIs on Remove")
			}
			mod.Update()
			for _, cpu := range machine.CPUs() {
				if res := pmap.Access(mod, cpu, pm, base, vmtypes.ProtRead); res.Fault == vmtypes.FaultNone {
					t.Fatalf("cpu %d still translates a removed promoted span", cpu.ID)
				}
			}
		})
	}
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", what)
		}
	}()
	fn()
}

func ExampleStrategy() {
	for _, s := range []pmap.Strategy{pmap.ShootImmediate, pmap.ShootDeferred, pmap.ShootLazy} {
		fmt.Println(s)
	}
	// Output:
	// immediate
	// deferred
	// lazy
}

// TestClockReadIsExact: a hardware charge is on the clock when it is
// incurred, so the difference of two clock reads around one access that
// misses the TLB is the whole cost of that access — miss, table walk and
// memory reference — with nothing flushed in between.
func TestClockReadIsExact(t *testing.T) {
	a := allArchs()[0]
	machine, mod := newTestMachine(a, 2)
	pm := mod.Create()
	defer pm.Destroy()
	cpu := machine.CPU(1)
	pm.Activate(cpu)
	pm.Enter(0, 7, vmtypes.ProtDefault, false)

	before := machine.Clock.Now()
	pm.Walk(0)
	walk := machine.Clock.Now() - before

	before = machine.Clock.Now()
	res := pmap.Access(mod, cpu, pm, 0, vmtypes.ProtRead)
	delta := machine.Clock.Now() - before
	if res.Fault != vmtypes.FaultNone || res.TLBHit {
		t.Fatalf("want a TLB miss resolved by the table walk, got %+v", res)
	}
	if want := a.cost.TLBMiss + walk + a.cost.MemAccess; delta != want {
		t.Fatalf("clock moved %d ns across the access, want %d (TLB miss %d + walk %d + access %d)",
			delta, want, a.cost.TLBMiss, walk, a.cost.MemAccess)
	}
}

// tableArchs are the machines whose maps are the shared pmap.Table.
func tableArchs() (out []testArch) {
	for _, a := range allArchs() {
		if a.name == "vax" || a.name == "sun3" || a.name == "ns32082" {
			out = append(out, a)
		}
	}
	return out
}

// batchWorld is one map, active on both CPUs of its own machine, holding the
// mappings TestBatchedMutatorsMatchPerPage changes: page numbers
// [batchLo, batchHi) — 300 PTEs over three 128-PTE groups, nineteen on the
// SUN 3 — with [128, 256) fully and uniformly mapped (so promoted where the
// machine promotes) and, outside it, every seventh page a hole and every
// fifth read-only already.
type batchWorld struct {
	machine *hw.Machine
	mod     pmap.Module
	pm      pmap.Map
	ps      vmtypes.VA
}

const batchLo, batchHi = 40, 340

func batchHole(vpn uint64) bool { return (vpn < 128 || vpn >= 256) && vpn%7 == 3 }

func newBatchWorld(a testArch) *batchWorld {
	machine, mod := newTestMachine(a, 2)
	w := &batchWorld{machine: machine, mod: mod, pm: mod.Create(), ps: vmtypes.VA(a.hwPageSize)}
	w.pm.Activate(machine.CPU(0))
	w.pm.Activate(machine.CPU(1))
	for vpn := uint64(batchLo); vpn < batchHi; vpn++ {
		if batchHole(vpn) {
			continue
		}
		prot := vmtypes.ProtDefault
		if (vpn < 128 || vpn >= 256) && vpn%5 == 0 {
			prot = vmtypes.ProtRead
		}
		w.pm.Enter(vmtypes.VA(vpn)*w.ps, vmtypes.PFN(vpn+100), prot, false)
	}
	return w
}

// apply runs op over [batchLo, batchHi): in one call, or a page at a time.
func (w *batchWorld) apply(perPage bool, op func(start, end vmtypes.VA)) {
	if !perPage {
		op(batchLo*w.ps, batchHi*w.ps)
		return
	}
	for vpn := vmtypes.VA(batchLo); vpn < batchHi; vpn++ {
		op(vpn*w.ps, (vpn+1)*w.ps)
	}
}

// state renders everything the two worlds must agree on. The Removes and
// Protects counters count calls, which is the one thing that differs by
// construction, so they are zeroed first.
func (w *batchWorld) state(t *testing.T) string {
	t.Helper()
	checkSuperInvariants(t, w.pm)
	w.mod.Stats().Removes.Store(0)
	w.mod.Stats().Protects.Store(0)
	out := fmt.Sprintf("clock=%d |%s |%s | ipis=%d resident=%d\n", w.machine.Clock.Now(),
		counters(w.mod.Stats()), counters(w.mod.Shootdown().Stats()), w.machine.IPIsSent(), w.pm.ResidentCount())
	db := w.mod.(interface{ DB() *pmap.PhysDB }).DB()
	for vpn := uint64(batchLo - 8); vpn < batchHi+8; vpn++ {
		va := vmtypes.VA(vpn) * w.ps
		pfn, prot, ok := w.pm.Walk(va)
		out += fmt.Sprintf("%d:%d/%v/%v pv=", vpn, pfn, prot, ok)
		for _, pv := range db.AppendPVs(nil, vmtypes.PFN(vpn+100)) {
			if pv.Map != w.pm {
				t.Fatalf("frame %d: pv entry of a foreign map", vpn+100)
			}
			out += fmt.Sprintf("%d,", pv.VA/w.ps)
		}
		out += "\n"
	}
	return out
}

// TestBatchedMutatorsMatchPerPage holds the batched Protect and Remove of the
// table machines to their one-page-at-a-time meaning: a range longer than
// the batch, spanning several groups, with holes and unchanged PTEs in it,
// must leave the same PTEs, pv lists, shootdown and module counters and
// virtual clock as the same range applied a page at a time.
func TestBatchedMutatorsMatchPerPage(t *testing.T) {
	for _, a := range tableArchs() {
		t.Run(a.name, func(t *testing.T) {
			batched, perPage := newBatchWorld(a), newBatchWorld(a)
			if got, want := batched.state(t), perPage.state(t); got != want {
				t.Fatalf("the two worlds differ before any range operation:\n%s\nvs\n%s", got, want)
			}
			if n := batched.pm.ResidentCount(); n < 65 {
				t.Fatalf("only %d PTEs in the range; the batch is 64", n)
			}
			steps := []struct {
				name string
				op   func(w *batchWorld) func(start, end vmtypes.VA)
			}{
				{"protect", func(w *batchWorld) func(start, end vmtypes.VA) {
					return func(s, e vmtypes.VA) { w.pm.Protect(s, e, vmtypes.ProtRead) }
				}},
				{"remove", func(w *batchWorld) func(start, end vmtypes.VA) { return w.pm.Remove }},
			}
			for _, st := range steps {
				batched.apply(false, st.op(batched))
				perPage.apply(true, st.op(perPage))
				if got, want := batched.state(t), perPage.state(t); got != want {
					t.Fatalf("%s: one range call differs from a page at a time.\nrange:\n%s\nper page:\n%s", st.name, got, want)
				}
			}
			if n := batched.pm.ResidentCount(); n != 0 {
				t.Fatalf("%d PTEs survived Remove of the whole range", n)
			}
		})
	}
}

// TestTableMutatorsRace runs the mutators against each other the way the
// kernel does — never two on one page at once, but freely on neighbouring
// pages of one group and neighbouring frames of one pv block: one goroutine
// enters mappings in the first quarter of each group and marks frames
// accessed, the other enters, protects, removes and RemoveAlls the rest of
// each group and clears modify bits. Run under -race; afterwards the group
// bookkeeping, PTE↔pv agreement and the modify bits must all be intact.
func TestTableMutatorsRace(t *testing.T) {
	for _, a := range tableArchs() {
		t.Run(a.name, func(t *testing.T) {
			const groups, rounds = 3, 40
			machine, mod := newTestMachine(a, 2)
			db := mod.(interface{ DB() *pmap.PhysDB }).DB()
			pm := mod.Create()
			defer pm.Destroy()
			pm.Activate(machine.CPU(0))
			pm.Activate(machine.CPU(1))
			ps := vmtypes.VA(a.hwPageSize)
			per := uint64(128)
			if a.name == "sun3" {
				per = 16
			}
			// The enterer owns page numbers with vpn%per < per/4 and the
			// even frames; the remover owns the rest, and maps every fourth
			// of its pages to one of the enterer's frames, so both sides
			// work on those frames' pv lists. Odd and even frames share
			// every pv block.
			mine := func(vpn uint64) bool { return vpn%per < per/4 }
			pfnOf := func(vpn uint64, round int) vmtypes.PFN {
				if !mine(vpn) && vpn%4 == 1 {
					vpn = vpn/per*per + vpn%(per/4)
				}
				pfn := vmtypes.PFN(2 * (vpn + uint64(round%2)*groups*per))
				if !mine(vpn) {
					pfn++
				}
				return pfn
			}
			// The top frames are only ever marked, never cleared or mapped.
			const nkeep = 16
			keep := a.frames - nkeep

			done := make(chan struct{})
			go func() {
				defer close(done)
				for r := 0; r < rounds; r++ {
					for g := uint64(0); g < groups; g++ {
						pfns := make([]vmtypes.PFN, per/4)
						for i := range pfns {
							pfns[i] = pfnOf(g*per+uint64(i), r)
						}
						if r%3 == 0 {
							for i, pfn := range pfns {
								pm.Enter(vmtypes.VA(g*per+uint64(i))*ps, pfn, vmtypes.ProtDefault, false)
							}
						} else {
							enterRange(pm, vmtypes.VA(g*per)*ps, pfns, ps, vmtypes.ProtDefault, false)
						}
						for i := 0; i < nkeep; i++ {
							mod.MarkAccess(vmtypes.PFN(keep+i), true)
							mod.MarkAccess(pfnOf(g*per+per/2, r), true)
						}
					}
				}
			}()
			for r := 0; r < rounds; r++ {
				for g := uint64(0); g < groups; g++ {
					lo, hi := g*per+per/4, (g+1)*per
					for vpn := lo; vpn < hi; vpn++ {
						if vpn%5 != 0 {
							pm.Enter(vmtypes.VA(vpn)*ps, pfnOf(vpn, r), vmtypes.ProtDefault, false)
						}
					}
					pm.Protect(vmtypes.VA(lo)*ps, vmtypes.VA(hi)*ps, vmtypes.ProtRead)
					for vpn := lo; vpn < hi; vpn += 3 {
						if pfn := pfnOf(vpn, r); pfn%2 == 1 {
							mod.RemoveAll(pfn)
							mod.ClearModify(pfn)
						}
					}
					if r%2 == 0 {
						pm.Remove(vmtypes.VA(lo)*ps, vmtypes.VA(hi)*ps)
					}
				}
			}
			<-done

			checkSuperInvariants(t, pm)
			for i := 0; i < nkeep; i++ {
				if !mod.IsModified(vmtypes.PFN(keep + i)) {
					t.Fatalf("frame %d lost its modify bit", keep+i)
				}
			}
			mapped := 0
			for vpn := uint64(0); vpn < groups*per; vpn++ {
				va := vmtypes.VA(vpn) * ps
				pfn, ok := pm.Extract(va)
				if !ok {
					continue
				}
				mapped++
				found := false
				for _, pv := range db.AppendPVs(nil, pfn) {
					found = found || pv.Map == pm && pv.VA == va
				}
				if !found {
					t.Fatalf("page %d maps frame %d, which has no pv entry for it", vpn, pfn)
				}
			}
			for pfn := 0; pfn < a.frames; pfn++ {
				for _, pv := range db.AppendPVs(nil, vmtypes.PFN(pfn)) {
					if got, ok := pm.Extract(pv.VA); !ok || got != vmtypes.PFN(pfn) {
						t.Fatalf("frame %d has a pv entry at page %d, which maps %d,%v", pfn, pv.VA/ps, got, ok)
					}
				}
			}
			if mapped != pm.ResidentCount() || mapped == 0 {
				t.Fatalf("%d pages extract, ResidentCount = %d", mapped, pm.ResidentCount())
			}
		})
	}
}
