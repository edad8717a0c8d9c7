package pmap_test

import (
	"testing"

	"machvm/internal/pmap"
)

// TestOptionalInterfaceMatrix pins exactly which maps implement the optional
// routines. The kernel discovers them by type assertion (core.faultFinish
// takes the range path whenever the map is a RangeEnterer, fork prewarms
// whenever it is a Copier) and bench's wrapMap reproduces the combination,
// so a method leaking onto a map through an embedded shared type would
// change that machine's charges with no other test failing.
func TestOptionalInterfaceMatrix(t *testing.T) {
	want := map[string][3]bool{ // RangeEnterer, Copier, Pageabler
		"vax":     {true, true, true},
		"sun3":    {true, false, false},
		"ns32082": {false, false, false},
		"rtpc":    {false, false, false},
		"tlbonly": {false, false, false},
	}
	forEachArch(t, func(t *testing.T, a testArch) {
		_, mod := newTestMachine(a, 1)
		pm := mod.Create()
		defer pm.Destroy()
		_, re := pm.(pmap.RangeEnterer)
		_, cp := pm.(pmap.Copier)
		_, pg := pm.(pmap.Pageabler)
		_, sm := pm.(interface{ CheckSuperInvariants() error })
		if got := [3]bool{re, cp, pg}; got != want[a.name] {
			t.Errorf("RangeEnterer/Copier/Pageabler = %v, want %v", got, want[a.name])
		}
		if sm != re {
			t.Errorf("superpage introspection = %v on a map with RangeEnterer = %v", sm, re)
		}
	})
}
