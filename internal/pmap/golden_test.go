package pmap_test

// The golden pin: one seeded script of pmap operations, driven against all
// five modules under all three shootdown strategies, with every number the
// virtual cost model produces compared against constants recorded at commit
// d98e436 (before vax, sun3 and ns32082 were moved onto the shared
// pmap.Table). No benchmark workload boots ns32082, and none reaches Collect,
// deferred shootdown or SUN 3 context stealing with more than a handful of
// operations, so this is what holds those paths to the parent's charges.
//
// A mismatch prints the row as it should be pasted into goldenWant — but a
// row only changes legitimately when a cost model or the script changes; a
// refactor of the table code must leave all fifteen rows alone.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/vmtypes"
)

const (
	goldenOps  = 24000
	goldenMaps = 12  // more than the SUN 3's 8 contexts
	goldenVPNs = 640 // 5 VAX page-table pages, 40 SUN 3 PMEGs
)

var goldenWant = map[string]string{
	"vax/immediate":     "clock=982751200 | Enters=78672 Removes=2846 Protects=2932 Walks=5262 WalkMisses=1689 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=0 ContextSteals=0 RangeEnters=2381 Promotions=310 Demotions=310 TableBytes=0 TableBytesMax=26112 | LocalFlushes=10833 RemoteIPIs=3831 DeferredFlushes=0 LazySkips=0 | tlb={Hits:646 Misses:5242 PageFlushes:14527 SpaceFlushes:501 FullFlushes:0 Evictions:0} ipis=3831",
	"vax/deferred":      "clock=522861200 | Enters=78653 Removes=2846 Protects=2932 Walks=5225 WalkMisses=1676 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=0 ContextSteals=0 RangeEnters=2381 Promotions=310 Demotions=310 TableBytes=0 TableBytesMax=26112 | LocalFlushes=10823 RemoteIPIs=0 DeferredFlushes=3822 LazySkips=0 | tlb={Hits:663 Misses:5207 PageFlushes:14506 SpaceFlushes:501 FullFlushes:0 Evictions:0} ipis=0",
	"vax/lazy":          "clock=521187200 | Enters=78649 Removes=2846 Protects=2932 Walks=5210 WalkMisses=1674 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=0 ContextSteals=0 RangeEnters=2381 Promotions=310 Demotions=310 TableBytes=0 TableBytesMax=26112 | LocalFlushes=10821 RemoteIPIs=0 DeferredFlushes=3005 LazySkips=815 | tlb={Hits:674 Misses:5192 PageFlushes:13687 SpaceFlushes:501 FullFlushes:0 Evictions:0} ipis=0",
	"rtpc/immediate":    "clock=2006147650 | Enters=75550 Removes=2735 Protects=2797 Walks=5437 WalkMisses=1855 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=24449 ContextSteals=0 RangeEnters=0 Promotions=0 Demotions=0 TableBytes=32768 TableBytesMax=32768 | LocalFlushes=33850 RemoteIPIs=11556 DeferredFlushes=0 LazySkips=0 | tlb={Hits:608 Misses:5421 PageFlushes:45265 SpaceFlushes:501 FullFlushes:0 Evictions:0} ipis=11556",
	"rtpc/deferred":     "clock=503656550 | Enters=75535 Removes=2735 Protects=2797 Walks=5411 WalkMisses=1844 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=24448 ContextSteals=0 RangeEnters=0 Promotions=0 Demotions=0 TableBytes=32768 TableBytesMax=32768 | LocalFlushes=33832 RemoteIPIs=0 DeferredFlushes=11540 LazySkips=0 | tlb={Hits:617 Misses:5397 PageFlushes:45229 SpaceFlushes:501 FullFlushes:0 Evictions:0} ipis=0",
	"rtpc/lazy":         "clock=501550950 | Enters=75533 Removes=2735 Protects=2797 Walks=5402 WalkMisses=1843 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=24448 ContextSteals=0 RangeEnters=0 Promotions=0 Demotions=0 TableBytes=32768 TableBytesMax=32768 | LocalFlushes=33830 RemoteIPIs=0 DeferredFlushes=10847 LazySkips=691 | tlb={Hits:624 Misses:5388 PageFlushes:44534 SpaceFlushes:501 FullFlushes:0 Evictions:0} ipis=0",
	"sun3/immediate":    "clock=723135200 | Enters=75584 Removes=2612 Protects=2658 Walks=5444 WalkMisses=1904 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=0 ContextSteals=1869 RangeEnters=2381 Promotions=2923 Demotions=2923 TableBytes=49152 TableBytesMax=49152 | LocalFlushes=8922 RemoteIPIs=3599 DeferredFlushes=0 LazySkips=0 | tlb={Hits:638 Misses:5425 PageFlushes:12382 SpaceFlushes:502 FullFlushes:0 Evictions:0} ipis=3599",
	"sun3/deferred":     "clock=363092700 | Enters=75566 Removes=2612 Protects=2658 Walks=5404 WalkMisses=1891 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=0 ContextSteals=1869 RangeEnters=2381 Promotions=2923 Demotions=2923 TableBytes=49152 TableBytesMax=49152 | LocalFlushes=8912 RemoteIPIs=0 DeferredFlushes=3590 LazySkips=0 | tlb={Hits:658 Misses:5387 PageFlushes:12361 SpaceFlushes:502 FullFlushes:0 Evictions:0} ipis=0",
	"sun3/lazy":         "clock=361521200 | Enters=75562 Removes=2612 Protects=2658 Walks=5389 WalkMisses=1889 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=0 ContextSteals=1869 RangeEnters=2381 Promotions=2923 Demotions=2923 TableBytes=49152 TableBytesMax=49152 | LocalFlushes=8910 RemoteIPIs=0 DeferredFlushes=2820 LazySkips=768 | tlb={Hits:669 Misses:5372 PageFlushes:11589 SpaceFlushes:502 FullFlushes:0 Evictions:0} ipis=0",
	"ns32082/immediate": "clock=985785700 | Enters=75411 Removes=2819 Protects=2896 Walks=5289 WalkMisses=1691 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=0 ContextSteals=0 RangeEnters=0 Promotions=0 Demotions=0 TableBytes=0 TableBytesMax=25600 | LocalFlushes=12919 RemoteIPIs=4856 DeferredFlushes=0 LazySkips=0 | tlb={Hits:620 Misses:5270 PageFlushes:17637 SpaceFlushes:501 FullFlushes:0 Evictions:0} ipis=4856",
	"ns32082/deferred":  "clock=548502800 | Enters=75393 Removes=2819 Protects=2896 Walks=5249 WalkMisses=1678 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=0 ContextSteals=0 RangeEnters=0 Promotions=0 Demotions=0 TableBytes=0 TableBytesMax=25600 | LocalFlushes=12907 RemoteIPIs=0 DeferredFlushes=4845 LazySkips=0 | tlb={Hits:640 Misses:5232 PageFlushes:17612 SpaceFlushes:501 FullFlushes:0 Evictions:0} ipis=0",
	"ns32082/lazy":      "clock=545991800 | Enters=75389 Removes=2819 Protects=2896 Walks=5234 WalkMisses=1676 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=0 ContextSteals=0 RangeEnters=0 Promotions=0 Demotions=0 TableBytes=0 TableBytesMax=25600 | LocalFlushes=12905 RemoteIPIs=0 DeferredFlushes=4027 LazySkips=816 | tlb={Hits:651 Misses:5217 PageFlushes:16792 SpaceFlushes:501 FullFlushes:0 Evictions:0} ipis=0",
	"tlbonly/immediate": "clock=434224700 | Enters=75411 Removes=3021 Protects=3094 Walks=5289 WalkMisses=1691 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=0 ContextSteals=0 RangeEnters=0 Promotions=0 Demotions=0 TableBytes=0 TableBytesMax=0 | LocalFlushes=12932 RemoteIPIs=4860 DeferredFlushes=0 LazySkips=0 | tlb={Hits:620 Misses:5270 PageFlushes:17654 SpaceFlushes:501 FullFlushes:0 Evictions:0} ipis=4860",
	"tlbonly/deferred":  "clock=142495100 | Enters=75393 Removes=3021 Protects=3094 Walks=5249 WalkMisses=1678 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=0 ContextSteals=0 RangeEnters=0 Promotions=0 Demotions=0 TableBytes=0 TableBytesMax=0 | LocalFlushes=12920 RemoteIPIs=0 DeferredFlushes=4849 LazySkips=0 | tlb={Hits:640 Misses:5232 PageFlushes:17629 SpaceFlushes:501 FullFlushes:0 Evictions:0} ipis=0",
	"tlbonly/lazy":      "clock=140822600 | Enters=75389 Removes=3021 Protects=3094 Walks=5234 WalkMisses=1676 Collects=389 ZeroPages=0 CopyPages=0 RemoveAlls=708 CopyOnWrites=779 AliasReplaces=0 ContextSteals=0 RangeEnters=0 Promotions=0 Demotions=0 TableBytes=0 TableBytesMax=0 | LocalFlushes=12918 RemoteIPIs=0 DeferredFlushes=4028 LazySkips=819 | tlb={Hits:651 Misses:5217 PageFlushes:16806 SpaceFlushes:501 FullFlushes:0 Evictions:0} ipis=0",
}

// counters renders every atomic counter field of a stats struct, in
// declaration order, so a counter added later is pinned without editing
// this file.
func counters(stats any) string {
	v := reflect.ValueOf(stats).Elem()
	out := ""
	for i := 0; i < v.NumField(); i++ {
		var n int64
		switch c := v.Field(i).Addr().Interface().(type) {
		case *atomic.Uint64:
			n = int64(c.Load())
		case *atomic.Int64:
			n = c.Load()
		default:
			panic("golden: unexpected stats field type " + v.Type().Field(i).Name)
		}
		out += fmt.Sprintf(" %s=%d", v.Type().Field(i).Name, n)
	}
	return out
}

func goldenRun(a testArch, strategy pmap.Strategy) string {
	machine := hw.NewMachine(hw.Config{
		Cost:       a.cost,
		HWPageSize: a.hwPageSize,
		PhysFrames: a.frames,
		CPUs:       2,
		TLBSize:    64,
	})
	mod := a.newModule(machine, strategy)
	ps := vmtypes.VA(a.hwPageSize)
	rng := rand.New(rand.NewSource(1987))

	maps := make([]pmap.Map, goldenMaps)
	for i := range maps {
		maps[i] = mod.Create()
	}
	cur := [2]int{-1, -1} // the map each CPU runs, or -1

	// Maps i, i+3, i+6, ... share frames (so RemoveAll and CopyOnWrite find
	// several PVs); within one map every frame appears once.
	pfnFor := func(mi int, vpn uint64) vmtypes.PFN {
		return vmtypes.PFN((vpn*7 + 3 + uint64(mi%3)*501) % uint64(a.frames))
	}
	prots := []vmtypes.Prot{vmtypes.ProtRead, vmtypes.ProtDefault, vmtypes.ProtAll}
	idle := func(mi int) {
		for c := range cur {
			if cur[c] == mi {
				maps[mi].Deactivate(machine.CPU(c))
				cur[c] = -1
			}
		}
	}

	for op := 0; op < goldenOps; op++ {
		mi := rng.Intn(goldenMaps)
		if c := rng.Intn(4); c < 2 && cur[c] >= 0 {
			mi = cur[c] // half the operations land on a running map
		}
		vpn := uint64(rng.Intn(goldenVPNs))
		if rng.Intn(2) == 0 {
			vpn = uint64(mi%4)*64 + uint64(rng.Intn(48)) // its hot region
		}
		va := vmtypes.VA(vpn) * ps
		pm := maps[mi]
		switch r := rng.Intn(200); {
		case r < 50: // enter, sometimes twice (an identical re-enter)
			prot := prots[rng.Intn(3)]
			wired := rng.Intn(16) == 0
			pm.Enter(va, pfnFor(mi, vpn), prot, wired)
			if rng.Intn(8) == 0 {
				pm.Enter(va, pfnFor(mi, vpn), prot, wired)
			}
		case r < 70: // range enter; a quarter of them fill whole table groups
			n := uint64(rng.Intn(24) + 1)
			if rng.Intn(4) == 0 {
				n = []uint64{16, 128}[rng.Intn(2)]
				vpn &^= n - 1
				va = vmtypes.VA(vpn) * ps
			}
			if vpn+n > goldenVPNs {
				n = goldenVPNs - vpn
			}
			pfns := make([]vmtypes.PFN, n)
			for d := range pfns {
				pfns[d] = pfnFor(mi, vpn+uint64(d))
			}
			enterRange(pm, va, pfns, ps, prots[rng.Intn(3)], false)
		case r < 90: // remove
			n := uint64(rng.Intn(8) + 1)
			if rng.Intn(8) == 0 {
				n = uint64(rng.Intn(200) + 1)
			}
			pm.Remove(va, va+vmtypes.VA(n)*ps)
		case r < 110: // protect
			n := uint64(rng.Intn(32) + 1)
			prot := vmtypes.ProtRead
			if rng.Intn(2) == 0 {
				prot |= vmtypes.ProtExecute
			}
			pm.Protect(va, va+vmtypes.VA(n)*ps, prot)
		case r < 170: // a memory access through the TLB, faults resolved
			c := rng.Intn(2)
			if cur[c] < 0 {
				break
			}
			cpu := machine.CPU(c)
			am := maps[cur[c]]
			vpn = uint64(cur[c]%4)*64 + vpn%24
			va = vmtypes.VA(vpn) * ps
			access := vmtypes.ProtRead
			if rng.Intn(3) == 0 {
				access = vmtypes.ProtWrite
			}
			if res := pmap.Access(mod, cpu, am, va, access); res.Fault != vmtypes.FaultNone {
				am.Enter(va, pfnFor(cur[c], vpn), vmtypes.ProtDefault, false)
				pmap.Access(mod, cpu, am, va, access)
			}
		case r < 173: // context switch
			c := rng.Intn(2)
			if cur[c] >= 0 {
				maps[cur[c]].Deactivate(machine.CPU(c))
			}
			if rng.Intn(3) == 0 && cur[1-c] >= 0 {
				mi = cur[1-c] // both CPUs in one task: shootdowns go remote
			}
			maps[mi].Activate(machine.CPU(c))
			cur[c] = mi
		case r < 179:
			mod.RemoveAll(pfnFor(mi, vpn))
		case r < 185:
			mod.CopyOnWrite(pfnFor(mi, vpn))
		case r < 188:
			pm.Collect()
		case r < 192: // pmap_copy and pmap_pageable where the machine has them
			dst := maps[(mi+1+rng.Intn(goldenMaps-1))%goldenMaps]
			n := uint64(rng.Intn(64) + 1)
			if cp, ok := pm.(pmap.Copier); ok {
				cp.CopyMappings(dst, va, n*uint64(ps), va)
			}
			if pg, ok := pm.(pmap.Pageabler); ok {
				pg.Pageable(va, va+vmtypes.VA(n)*ps, false)
			}
		case r < 195:
			mod.Update()
		case r < 197: // a reference taken and dropped keeps the map alive
			pm.Reference()
			pm.Destroy()
		default: // the task exits and another takes its slot
			idle(mi)
			pm.Destroy()
			maps[mi] = mod.Create()
		}
	}
	for mi := range maps {
		idle(mi)
		maps[mi].Destroy()
	}
	mod.Update()

	var tlb hw.TLBStats
	for _, cpu := range machine.CPUs() {
		s := cpu.TLB.Stats()
		tlb.Hits += s.Hits
		tlb.Misses += s.Misses
		tlb.PageFlushes += s.PageFlushes
		tlb.SpaceFlushes += s.SpaceFlushes
		tlb.FullFlushes += s.FullFlushes
		tlb.Evictions += s.Evictions
	}
	return fmt.Sprintf("clock=%d |%s |%s | tlb=%+v ipis=%d", machine.Clock.Now(),
		counters(mod.Stats()), counters(mod.Shootdown().Stats()), tlb, machine.IPIsSent())
}

func TestGoldenScript(t *testing.T) {
	for _, a := range allArchs() {
		for _, s := range []pmap.Strategy{pmap.ShootImmediate, pmap.ShootDeferred, pmap.ShootLazy} {
			name := a.name + "/" + s.String()
			t.Run(name, func(t *testing.T) {
				if got := goldenRun(a, s); got != goldenWant[name] {
					t.Errorf("virtual numbers moved.\n got: %q: %q,\nwant: %q", name, got, goldenWant[name])
				}
			})
		}
	}
}
