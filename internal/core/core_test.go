package core_test

import (
	"bytes"
	"testing"

	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/pmap/vax"
	"machvm/internal/vmtypes"
)

// newVAXKernel builds a small VAX machine: 512-byte hardware pages, 4096
// frames (2MB), 4KB Mach pages.
func newVAXKernel(t testing.TB, cpus int) (*core.Kernel, *hw.Machine) {
	t.Helper()
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 4096,
		CPUs:       cpus,
		TLBSize:    64,
	})
	mod := vax.New(machine, pmap.ShootImmediate)
	k := core.MustNewKernel(core.Config{Machine: machine, Module: mod, PageSize: 4096})
	return k, machine
}

func TestAllocateTouchDeallocate(t *testing.T) {
	k, machine := newVAXKernel(t, 1)
	m := k.NewMap()
	defer m.Destroy()
	cpu := machine.CPU(0)
	m.Pmap().Activate(cpu)

	addr, err := m.Allocate(0, 64*1024, true)
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	// Fresh memory is zero filled.
	buf := make([]byte, 128)
	if err := k.AccessBytes(cpu, m, addr, buf, false); err != nil {
		t.Fatalf("read: %v", err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh memory must be zero")
		}
	}
	// Write and read back across page boundaries.
	data := bytes.Repeat([]byte("mach!"), 2000)
	if err := k.AccessBytes(cpu, m, addr+100, data, true); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]byte, len(data))
	if err := k.AccessBytes(cpu, m, addr+100, got, false); err != nil {
		t.Fatalf("read back: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read back mismatch")
	}
	if k.Stats().ZeroFillFaults.Load() == 0 {
		t.Fatal("expected zero-fill faults")
	}

	if err := m.Deallocate(addr, 64*1024); err != nil {
		t.Fatalf("Deallocate: %v", err)
	}
	if err := k.Touch(cpu, m, addr, false); err == nil {
		t.Fatal("access after deallocate must fail")
	}
}

func TestAllocateAtAddressAndOverlap(t *testing.T) {
	k, _ := newVAXKernel(t, 1)
	m := k.NewMap()
	defer m.Destroy()

	addr := vmtypes.VA(0x10000)
	got, err := m.Allocate(addr, 8192, false)
	if err != nil || got != addr {
		t.Fatalf("Allocate at %x: got %x err %v", addr, got, err)
	}
	if _, err := m.Allocate(addr+4096, 4096, false); err != core.ErrInvalidAddress {
		t.Fatalf("overlapping allocate: err=%v; want ErrInvalidAddress", err)
	}
	if _, err := m.Allocate(addr+1, 4096, false); err != core.ErrBadAlignment {
		t.Fatalf("unaligned allocate: err=%v; want ErrBadAlignment", err)
	}
	if k.PageSize() != 4096 {
		t.Fatalf("page size = %d", k.PageSize())
	}
}

func TestProtectionSemantics(t *testing.T) {
	k, machine := newVAXKernel(t, 1)
	m := k.NewMap()
	defer m.Destroy()
	cpu := machine.CPU(0)
	m.Pmap().Activate(cpu)

	addr, _ := m.Allocate(0, 8192, true)
	if err := k.Touch(cpu, m, addr, true); err != nil {
		t.Fatalf("initial write: %v", err)
	}

	// Drop current protection to read-only: writes must fail.
	if err := m.Protect(addr, 8192, false, vmtypes.ProtRead); err != nil {
		t.Fatalf("Protect: %v", err)
	}
	if err := k.Touch(cpu, m, addr, true); err == nil {
		t.Fatal("write through read-only range must fail")
	}
	if err := k.Touch(cpu, m, addr, false); err != nil {
		t.Fatalf("read through read-only range: %v", err)
	}

	// Raise it back (still below max): writes work again.
	if err := m.Protect(addr, 8192, false, vmtypes.ProtDefault); err != nil {
		t.Fatalf("Protect raise: %v", err)
	}
	if err := k.Touch(cpu, m, addr, true); err != nil {
		t.Fatalf("write after raise: %v", err)
	}

	// Lower the maximum below write: current drops too and cannot be
	// raised back ("while the maximum protection can never be raised").
	if err := m.Protect(addr, 8192, true, vmtypes.ProtRead); err != nil {
		t.Fatalf("Protect setMax: %v", err)
	}
	if err := k.Touch(cpu, m, addr, true); err == nil {
		t.Fatal("write after max lowered must fail")
	}
	if err := m.Protect(addr, 8192, false, vmtypes.ProtDefault); err != core.ErrProtectionFailure {
		t.Fatalf("raising above max: err=%v; want ErrProtectionFailure", err)
	}
}

func TestVMCopyIsCopyOnWrite(t *testing.T) {
	k, machine := newVAXKernel(t, 1)
	m := k.NewMap()
	defer m.Destroy()
	cpu := machine.CPU(0)
	m.Pmap().Activate(cpu)

	src, _ := m.Allocate(0, 16384, true)
	payload := bytes.Repeat([]byte{0xAB}, 16384)
	if err := k.AccessBytes(cpu, m, src, payload, true); err != nil {
		t.Fatalf("fill: %v", err)
	}

	dst, _ := m.Allocate(0, 16384, true)
	if err := m.Deallocate(dst, 16384); err != nil {
		t.Fatal(err)
	}
	copies := k.Stats().Snapshot().CowFaults
	if _, err := m.CopyTo(m, src, 16384, dst, false); err != nil {
		t.Fatalf("CopyTo: %v", err)
	}
	// No data copied yet.
	if got := k.Stats().Snapshot().CowFaults; got != copies {
		t.Fatalf("virtual copy performed %d physical copies", got-copies)
	}

	// Read through the copy sees the source data.
	b := make([]byte, 16)
	if err := k.AccessBytes(cpu, m, dst, b, false); err != nil {
		t.Fatalf("read copy: %v", err)
	}
	if b[0] != 0xAB {
		t.Fatal("copy does not see source data")
	}

	// Writing the copy must not disturb the source.
	if err := k.AccessBytes(cpu, m, dst, []byte{0x11}, true); err != nil {
		t.Fatalf("write copy: %v", err)
	}
	if err := k.AccessBytes(cpu, m, src, b[:1], false); err != nil {
		t.Fatalf("read src: %v", err)
	}
	if b[0] != 0xAB {
		t.Fatal("write to copy leaked into source")
	}
	// Writing the source must not disturb the copy.
	if err := k.AccessBytes(cpu, m, src+4096, []byte{0x22}, true); err != nil {
		t.Fatalf("write src: %v", err)
	}
	if err := k.AccessBytes(cpu, m, dst+4096, b[:1], false); err != nil {
		t.Fatalf("read copy2: %v", err)
	}
	if b[0] != 0xAB {
		t.Fatal("write to source leaked into copy")
	}
	if k.Stats().Snapshot().CowFaults == copies {
		t.Fatal("writes after virtual copy should have copied pages")
	}
}

func TestForkInheritance(t *testing.T) {
	k, machine := newVAXKernel(t, 2)
	parent := k.NewMap()
	defer parent.Destroy()
	cpuP := machine.CPU(0)
	cpuC := machine.CPU(1)
	parent.Pmap().Activate(cpuP)

	copyAddr, _ := parent.Allocate(0, 8192, true)
	sharedAddr, _ := parent.Allocate(0, 8192, true)
	noneAddr, _ := parent.Allocate(0, 8192, true)
	if err := parent.SetInherit(sharedAddr, 8192, vmtypes.InheritShared); err != nil {
		t.Fatal(err)
	}
	if err := parent.SetInherit(noneAddr, 8192, vmtypes.InheritNone); err != nil {
		t.Fatal(err)
	}

	if err := k.AccessBytes(cpuP, parent, copyAddr, []byte{1}, true); err != nil {
		t.Fatal(err)
	}
	if err := k.AccessBytes(cpuP, parent, sharedAddr, []byte{2}, true); err != nil {
		t.Fatal(err)
	}

	child := parent.Fork()
	defer child.Destroy()
	child.Pmap().Activate(cpuC)

	// Copy range: child sees parent data, then diverges.
	b := make([]byte, 1)
	if err := k.AccessBytes(cpuC, child, copyAddr, b, false); err != nil {
		t.Fatalf("child read copy range: %v", err)
	}
	if b[0] != 1 {
		t.Fatalf("child copy range = %d; want 1", b[0])
	}
	if err := k.AccessBytes(cpuC, child, copyAddr, []byte{9}, true); err != nil {
		t.Fatal(err)
	}
	if err := k.AccessBytes(cpuP, parent, copyAddr, b, false); err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 {
		t.Fatal("child write leaked into parent (copy inheritance)")
	}

	// Shared range: writes are visible both ways.
	if err := k.AccessBytes(cpuC, child, sharedAddr, []byte{7}, true); err != nil {
		t.Fatalf("child write shared: %v", err)
	}
	if err := k.AccessBytes(cpuP, parent, sharedAddr, b, false); err != nil {
		t.Fatal(err)
	}
	if b[0] != 7 {
		t.Fatalf("parent sees %d in shared range; want 7", b[0])
	}
	if err := k.AccessBytes(cpuP, parent, sharedAddr+100, []byte{8}, true); err != nil {
		t.Fatal(err)
	}
	if err := k.AccessBytes(cpuC, child, sharedAddr+100, b, false); err != nil {
		t.Fatal(err)
	}
	if b[0] != 8 {
		t.Fatalf("child sees %d in shared range; want 8", b[0])
	}

	// None range: unallocated in the child.
	if err := k.Touch(cpuC, child, noneAddr, false); err == nil {
		t.Fatal("inherit-none range must be unallocated in child")
	}
}

func TestRepeatedForkCollapsesShadowChains(t *testing.T) {
	// §3.5: a process that repeatedly forks would otherwise build a long
	// shadow chain down to the object backing the stack.
	k, machine := newVAXKernel(t, 1)
	cpu := machine.CPU(0)

	m := k.NewMap()
	addr, _ := m.Allocate(0, 8192, true)
	m.Pmap().Activate(cpu)
	if err := k.AccessBytes(cpu, m, addr, []byte{1}, true); err != nil {
		t.Fatal(err)
	}

	const generations = 12
	for i := 0; i < generations; i++ {
		child := m.Fork()
		// Parent keeps writing, forcing shadows.
		m.Pmap().Activate(cpu)
		if err := k.AccessBytes(cpu, m, addr, []byte{byte(i)}, true); err != nil {
			t.Fatal(err)
		}
		// The previous generation exits.
		m.Destroy()
		m = child
		m.Pmap().Activate(cpu)
		if err := k.AccessBytes(cpu, m, addr, []byte{byte(i + 100)}, true); err != nil {
			t.Fatal(err)
		}
	}
	if k.Stats().ShadowsCollapsed.Load() == 0 {
		t.Fatal("no shadow collapses after repeated fork; chains are leaking")
	}
	m.Destroy()
}

func TestVMReadWrite(t *testing.T) {
	k, _ := newVAXKernel(t, 1)
	m := k.NewMap()
	defer m.Destroy()

	addr, _ := m.Allocate(0, 8192, true)
	data := []byte("hello from the kernel interface")
	if err := k.VMWrite(m, addr+10, data); err != nil {
		t.Fatalf("VMWrite: %v", err)
	}
	got, err := k.VMRead(m, addr+10, uint64(len(data)))
	if err != nil {
		t.Fatalf("VMRead: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("VMRead = %q; want %q", got, data)
	}
}

func TestRegions(t *testing.T) {
	k, _ := newVAXKernel(t, 1)
	m := k.NewMap()
	defer m.Destroy()

	a1, _ := m.Allocate(0, 8192, true)
	a2, _ := m.Allocate(0, 4096, true)
	regions := m.Regions()
	if len(regions) < 2 {
		t.Fatalf("Regions returned %d entries; want >= 2", len(regions))
	}
	found1, found2 := false, false
	for _, r := range regions {
		if r.Start == a1 && r.End == a1+8192 {
			found1 = true
		}
		if r.Start == a2 && r.End == a2+4096 {
			found2 = true
		}
		if r.Inherit != vmtypes.InheritCopy {
			t.Fatal("default inheritance must be copy")
		}
	}
	if !found1 || !found2 {
		t.Fatal("Regions missed an allocation")
	}
}

func TestPageoutReclaimsAndPagesBackIn(t *testing.T) {
	// A machine with little memory: allocate more anonymous memory than
	// physical memory and touch it all twice. The paging daemon must
	// write dirty pages to the default pager and the second pass must
	// page them back in intact.
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 512, // 256KB
		CPUs:       1,
		TLBSize:    64,
	})
	mod := vax.New(machine, pmap.ShootDeferred)
	k := core.MustNewKernel(core.Config{Machine: machine, Module: mod, PageSize: 4096})
	cpu := machine.CPU(0)

	m := k.NewMap()
	defer m.Destroy()
	m.Pmap().Activate(cpu)

	const size = 512 * 1024 // 2x physical memory
	addr, err := m.Allocate(0, size, true)
	if err != nil {
		t.Fatal(err)
	}
	// Write a recognizable pattern into every page.
	for off := uint64(0); off < size; off += 4096 {
		tag := []byte{byte(off >> 12), byte(off >> 20), 0x5A}
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(off), tag, true); err != nil {
			t.Fatalf("write page %d: %v", off/4096, err)
		}
	}
	if k.Stats().Snapshot().Pageouts == 0 {
		t.Fatal("expected pageouts with memory oversubscribed 2x")
	}
	// Read everything back and verify.
	for off := uint64(0); off < size; off += 4096 {
		b := make([]byte, 3)
		if err := k.AccessBytes(cpu, m, addr+vmtypes.VA(off), b, false); err != nil {
			t.Fatalf("read page %d: %v", off/4096, err)
		}
		if b[0] != byte(off>>12) || b[1] != byte(off>>20) || b[2] != 0x5A {
			t.Fatalf("page %d corrupted after pageout: % x", off/4096, b)
		}
	}
	if k.Stats().Snapshot().Pageins == 0 {
		t.Fatal("expected pageins on the second pass")
	}
}

func TestWirePreventsPageout(t *testing.T) {
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 512,
		CPUs:       1,
	})
	mod := vax.New(machine, pmap.ShootImmediate)
	k := core.MustNewKernel(core.Config{Machine: machine, Module: mod, PageSize: 4096})
	cpu := machine.CPU(0)
	m := k.NewMap()
	defer m.Destroy()
	m.Pmap().Activate(cpu)

	wiredAddr, _ := m.Allocate(0, 32*1024, true)
	if err := m.Wire(wiredAddr, 32*1024); err != nil {
		t.Fatalf("Wire: %v", err)
	}
	// Oversubscribe the rest of memory.
	bigAddr, _ := m.Allocate(0, 400*1024, true)
	for off := uint64(0); off < 400*1024; off += 4096 {
		if err := k.AccessBytes(cpu, m, bigAddr+vmtypes.VA(off), []byte{1}, true); err != nil {
			t.Fatal(err)
		}
	}
	st := k.VMStatistics()
	if st.WireCount < 8 {
		t.Fatalf("WireCount = %d; want >= 8", st.WireCount)
	}
	if err := m.Unwire(wiredAddr, 32*1024); err != nil {
		t.Fatalf("Unwire: %v", err)
	}
}

func TestStatisticsShape(t *testing.T) {
	k, machine := newVAXKernel(t, 1)
	m := k.NewMap()
	defer m.Destroy()
	cpu := machine.CPU(0)
	m.Pmap().Activate(cpu)
	addr, _ := m.Allocate(0, 16*4096, true)
	for i := 0; i < 16; i++ {
		if err := k.Touch(cpu, m, addr+vmtypes.VA(i*4096), true); err != nil {
			t.Fatal(err)
		}
	}
	st := k.VMStatistics()
	if st.ZeroFillFaults < 16 {
		t.Fatalf("ZeroFillFaults = %d; want >= 16", st.ZeroFillFaults)
	}
	if st.ActiveCount < 16 {
		t.Fatalf("ActiveCount = %d; want >= 16", st.ActiveCount)
	}
	if st.PageSize != 4096 {
		t.Fatalf("PageSize = %d", st.PageSize)
	}
	if snap := k.Stats().Snapshot(); st.StatsSnapshot != snap {
		t.Fatalf("vm_statistics counters differ from Snapshot():\n%+v\n%+v", st.StatsSnapshot, snap)
	}
	if st.FreeCount+st.ActiveCount+st.InactiveCount+st.WireCount > k.TotalPages() {
		t.Fatal("queue accounting exceeds physical memory")
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	k, machine := newVAXKernel(t, 1)
	m := k.NewMap()
	defer m.Destroy()
	cpu := machine.CPU(0)
	m.Pmap().Activate(cpu)
	before := machine.Clock.Now()
	addr, _ := m.Allocate(0, 4096, true)
	if err := k.Touch(cpu, m, addr, true); err != nil {
		t.Fatal(err)
	}
	if machine.Clock.Now() <= before {
		t.Fatal("virtual clock did not advance across allocate+fault")
	}
}
