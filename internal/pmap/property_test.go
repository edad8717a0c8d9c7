package pmap_test

// Model-based property tests for every machine-dependent module: random
// Enter/Remove/Protect/Collect sequences against a flat reference model.
// Because a pmap is allowed to forget mappings (and the RT PC *must*
// forget on alias), the property is one-sided where forgetting is legal:
// anything the pmap still reports must match the model; wired mappings
// must never be forgotten; and after Remove nothing may remain.

import (
	"math/rand"
	"testing"

	"machvm/internal/pmap"
	"machvm/internal/vmtypes"
)

type modelMapping struct {
	pfn   vmtypes.PFN
	prot  vmtypes.Prot
	wired bool
}

func TestPmapModelProperty(t *testing.T) {
	forEachArch(t, func(t *testing.T, a testArch) {
		machine, mod := newTestMachine(a, 1)
		_ = machine
		pm := mod.Create()
		defer pm.Destroy()
		ps := uint64(a.hwPageSize)

		rng := rand.New(rand.NewSource(1234))
		model := make(map[uint64]modelMapping) // vpn -> mapping
		// Distinct pfn per vpn avoids RT PC aliasing (tested on its own).
		pfnFor := func(vpn uint64) vmtypes.PFN { return vmtypes.PFN(vpn % uint64(a.frames)) }

		const vpnSpace = 256
		const steps = 2000
		for i := 0; i < steps; i++ {
			vpn := uint64(rng.Intn(vpnSpace))
			va := vmtypes.VA(vpn * ps)
			switch rng.Intn(10) {
			case 0, 1, 2, 3: // enter
				prot := []vmtypes.Prot{vmtypes.ProtRead, vmtypes.ProtDefault, vmtypes.ProtAll}[rng.Intn(3)]
				wired := rng.Intn(10) == 0
				pm.Enter(va, pfnFor(vpn), prot, wired)
				model[vpn] = modelMapping{pfn: pfnFor(vpn), prot: prot, wired: wired}
			case 4, 5: // remove a small range
				n := uint64(rng.Intn(4) + 1)
				pm.Remove(va, va+vmtypes.VA(n*ps))
				for d := uint64(0); d < n; d++ {
					delete(model, vpn+d)
				}
			case 6: // protect (reduce)
				n := uint64(rng.Intn(4) + 1)
				pm.Protect(va, va+vmtypes.VA(n*ps), vmtypes.ProtRead)
				for d := uint64(0); d < n; d++ {
					if mm, ok := model[vpn+d]; ok {
						mm.prot = mm.prot.Intersect(vmtypes.ProtRead)
						model[vpn+d] = mm
					}
				}
			case 8: // range enter (EnterRange or the MI per-page fallback)
				n := uint64(rng.Intn(6) + 2)
				if vpn+n > vpnSpace {
					n = vpnSpace - vpn
				}
				prot := []vmtypes.Prot{vmtypes.ProtRead, vmtypes.ProtDefault, vmtypes.ProtAll}[rng.Intn(3)]
				pfns := make([]vmtypes.PFN, n)
				for d := range pfns {
					pfns[d] = pfnFor(vpn + uint64(d))
				}
				enterRange(pm, va, pfns, vmtypes.VA(ps), prot, false)
				for d := uint64(0); d < n; d++ {
					model[vpn+d] = modelMapping{pfn: pfnFor(vpn + d), prot: prot}
				}
				if sm, ok := pm.(superMap); ok {
					if err := sm.CheckSuperInvariants(); err != nil {
						t.Fatalf("%s: superpage invariants after EnterRange: %v", a.name, err)
					}
				}
			case 7: // collect: pmap may forget all non-wired mappings
				pm.Collect()
				for v, mm := range model {
					if !mm.wired {
						delete(model, v)
					}
				}
				// Note: after Collect the pmap must still hold the
				// wired ones — verified below every iteration.
			default: // verify a random probe
				checkVPN := uint64(rng.Intn(vpnSpace))
				verifyVPN(t, a, pm, model, checkVPN, ps)
			}
		}
		// Full final sweep.
		for vpn := uint64(0); vpn < vpnSpace; vpn++ {
			verifyVPN(t, a, pm, model, vpn, ps)
		}
	})
}

// verifyVPN enforces the one-sided contract described above.
func verifyVPN(t *testing.T, a testArch, pm pmap.Map, model map[uint64]modelMapping, vpn uint64, ps uint64) {
	t.Helper()
	va := vmtypes.VA(vpn * ps)
	pfn, ok := pm.Extract(va)
	mm, inModel := model[vpn]
	switch {
	case ok && !inModel:
		t.Fatalf("%s: pmap invents mapping for vpn %d", a.name, vpn)
	case ok && pfn != mm.pfn:
		t.Fatalf("%s: vpn %d maps to %d, model says %d", a.name, vpn, pfn, mm.pfn)
	case !ok && inModel && mm.wired:
		t.Fatalf("%s: wired mapping for vpn %d was forgotten", a.name, vpn)
	case !ok && inModel:
		// Forgetting a non-wired mapping is legal (tlbonly evicts,
		// sun3 loses contexts); the model just forgives it.
		delete(model, vpn)
	}
	if ok {
		wpfn, wprot, wok := pm.Walk(va)
		if !wok || wpfn != pfn {
			t.Fatalf("%s: Walk and Extract disagree at vpn %d", a.name, vpn)
		}
		if wprot&^mm.prot != 0 {
			t.Fatalf("%s: vpn %d prot %v exceeds model %v", a.name, vpn, wprot, mm.prot)
		}
	}
}

func TestPmapDestroyLeavesNothing(t *testing.T) {
	forEachArch(t, func(t *testing.T, a testArch) {
		_, mod := newTestMachine(a, 1)
		pm := mod.Create()
		ps := vmtypes.VA(a.hwPageSize)
		for i := 0; i < 64; i++ {
			pm.Enter(vmtypes.VA(i)*ps, vmtypes.PFN(i%a.frames), vmtypes.ProtDefault, i%5 == 0)
		}
		pm.Destroy()
		// A second map must see a pristine physical database: no stale
		// reverse mappings cause spurious invalidations.
		pm2 := mod.Create()
		defer pm2.Destroy()
		for i := 0; i < 64; i++ {
			if got := mod.Stats().RemoveAlls.Load(); got != 0 {
				break
			}
			mod.RemoveAll(vmtypes.PFN(i % a.frames))
		}
		if pm2.ResidentCount() != 0 {
			t.Fatal("fresh map shows residents")
		}
	})
}

func TestReferenceCountingKeepsMapAlive(t *testing.T) {
	forEachArch(t, func(t *testing.T, a testArch) {
		_, mod := newTestMachine(a, 1)
		pm := mod.Create()
		ps := vmtypes.VA(a.hwPageSize)
		pm.Enter(ps, 1, vmtypes.ProtDefault, false)
		pm.Reference()
		pm.Destroy() // drops to 1: must stay alive
		if !pm.Access(ps) {
			t.Fatal("map destroyed while referenced")
		}
		pm.Destroy() // now it goes
		if pm.Access(ps) {
			t.Fatal("map survived final destroy")
		}
	})
}

func TestPhysDBPVMaintenance(t *testing.T) {
	a := allArchs()[0] // vax
	_, mod := newTestMachine(a, 1)
	vaxMod := mod.(interface{ DB() *pmap.PhysDB })
	db := vaxMod.DB()
	pm1 := mod.Create()
	pm2 := mod.Create()
	defer pm1.Destroy()
	defer pm2.Destroy()
	ps := vmtypes.VA(a.hwPageSize)

	pm1.Enter(ps, 5, vmtypes.ProtDefault, false)
	pm2.Enter(3*ps, 5, vmtypes.ProtDefault, false)
	if db.PVCount(5) != 2 {
		t.Fatalf("PVCount = %d; want 2", db.PVCount(5))
	}
	pvs := db.AppendPVs(nil, 5)
	if len(pvs) != 2 {
		t.Fatal("PVs snapshot wrong")
	}
	pm1.Remove(ps, 2*ps)
	if db.PVCount(5) != 1 {
		t.Fatalf("PVCount after remove = %d", db.PVCount(5))
	}
	// Duplicate AddPV coalesces.
	db.AddPV(7, pm1, ps)
	db.AddPV(7, pm1, ps)
	if db.PVCount(7) != 1 {
		t.Fatal("duplicate PV not coalesced")
	}
	// Out-of-range frames are ignored, not fatal.
	db.AddPV(vmtypes.PFN(1<<40), pm1, ps)
	db.MarkAccess(vmtypes.PFN(1<<40), true)
	if db.IsModified(vmtypes.PFN(1 << 40)) {
		t.Fatal("out-of-range frame tracked")
	}
}

func TestShooterStats(t *testing.T) {
	a := allArchs()[4]
	machine, mod := newTestMachine(a, 2)
	sh := mod.Shootdown()
	pm := mod.Create()
	defer pm.Destroy()
	for _, c := range machine.CPUs() {
		pm.Activate(c)
	}
	ps := vmtypes.VA(a.hwPageSize)
	pm.Enter(ps, 1, vmtypes.ProtDefault, false)
	// A fresh Enter has nothing stale to shoot; Remove does.
	pm.Remove(ps, 2*ps)
	if sh.Stats().LocalFlushes.Load() == 0 {
		t.Fatal("no local flushes recorded")
	}
	if sh.Stats().RemoteIPIs.Load() == 0 {
		t.Fatal("immediate strategy should record remote IPIs with 2 active CPUs")
	}
}
