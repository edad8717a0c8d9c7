package hw_test

import (
	"sync"
	"testing"
	"testing/quick"

	"machvm/internal/hw"
	"machvm/internal/vmtypes"
)

func testCost() hw.CostModel {
	return hw.CostModel{
		Name: "test", TLBMiss: 10, WalkLevel: 20, MemAccess: 1,
		FaultTrap: 100, Syscall: 50, ZeroPerKB: 1000, CopyPerKB: 2000,
		PTEOp: 5, MapEntryOp: 7, TLBFlushPage: 2, TLBFlushAll: 9,
		IPI: 30, ContextLoad: 11, TaskCreate: 500, MsgOp: 13,
		DiskLatency: 10000, DiskPerKB: 400,
	}
}

func TestClockMonotonic(t *testing.T) {
	var c hw.Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock should read zero")
	}
	c.Advance(5)
	if c.Now() != 5 {
		t.Fatalf("Now = %d after Advance(5)", c.Now())
	}
	c.Advance(-3)
	if c.Now() != 5 {
		t.Fatal("negative charges must be ignored")
	}
	c.Advance(0)
	if c.Now() != 5 {
		t.Fatal("zero charges must be ignored")
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	var c hw.Clock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8000 {
		t.Fatalf("lost updates: %d", c.Now())
	}
}

func TestPhysMemBasics(t *testing.T) {
	m := hw.NewPhysMem(512, 16)
	if m.PageSize() != 512 || m.NumFrames() != 16 || m.PopulatedFrames() != 16 {
		t.Fatal("geometry wrong")
	}
	f := m.Frame(3)
	f[0] = 0xAB
	if m.Frame(3)[0] != 0xAB {
		t.Fatal("frame bytes are not stable")
	}
	m.Zero(3)
	if m.Frame(3)[0] != 0 {
		t.Fatal("Zero did not clear")
	}
	m.Frame(4)[0] = 0xCD
	m.Copy(4, 5)
	if m.Frame(5)[0] != 0xCD {
		t.Fatal("Copy did not copy")
	}
	if m.Addr(2) != 1024 || m.FrameOf(1025) != 2 {
		t.Fatal("address arithmetic wrong")
	}
}

func TestPhysMemHoles(t *testing.T) {
	hole := hw.FrameRange{Start: 4, End: 8}
	m := hw.NewPhysMem(512, 16, hole)
	if m.PopulatedFrames() != 12 {
		t.Fatalf("populated = %d; want 12", m.PopulatedFrames())
	}
	for f := vmtypes.PFN(0); f < 16; f++ {
		want := !hole.Contains(f)
		if m.Valid(f) != want {
			t.Fatalf("Valid(%d) = %v", f, m.Valid(f))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("touching a hole frame must panic")
		}
	}()
	_ = m.Frame(5)
}

func TestPhysMemRejectsBadGeometry(t *testing.T) {
	for _, fn := range []func(){
		func() { hw.NewPhysMem(500, 16) }, // not a power of two
		func() { hw.NewPhysMem(512, 0) },  // no frames
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestTLBInsertLookupFlush(t *testing.T) {
	tlb := hw.NewTLB(4)
	k1 := hw.TLBKey{Space: 1, VPN: 10}
	tlb.Insert(k1, hw.TLBEntry{PFN: 7, Prot: vmtypes.ProtRead})
	if e, ok := tlb.Lookup(k1); !ok || e.PFN != 7 {
		t.Fatal("lookup after insert failed")
	}
	// Reinsert updates in place.
	tlb.Insert(k1, hw.TLBEntry{PFN: 8, Prot: vmtypes.ProtDefault})
	if e, _ := tlb.Lookup(k1); e.PFN != 8 || !e.Prot.Allows(vmtypes.ProtWrite) {
		t.Fatal("reinsert did not update")
	}
	if tlb.Len() != 1 {
		t.Fatalf("Len = %d", tlb.Len())
	}
	tlb.FlushPage(k1)
	if _, ok := tlb.Lookup(k1); ok {
		t.Fatal("flush page failed")
	}
}

func TestTLBEvictionFIFO(t *testing.T) {
	tlb := hw.NewTLB(2)
	a := hw.TLBKey{Space: 1, VPN: 1}
	b := hw.TLBKey{Space: 1, VPN: 2}
	c := hw.TLBKey{Space: 1, VPN: 3}
	tlb.Insert(a, hw.TLBEntry{PFN: 1})
	tlb.Insert(b, hw.TLBEntry{PFN: 2})
	tlb.Insert(c, hw.TLBEntry{PFN: 3}) // evicts a
	if _, ok := tlb.Lookup(a); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, ok := tlb.Lookup(b); !ok {
		t.Fatal("b should survive")
	}
	if tlb.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", tlb.Stats().Evictions)
	}
}

func TestTLBFlushSpace(t *testing.T) {
	tlb := hw.NewTLB(8)
	for vpn := uint64(0); vpn < 3; vpn++ {
		tlb.Insert(hw.TLBKey{Space: 1, VPN: vpn}, hw.TLBEntry{PFN: vmtypes.PFN(vpn)})
		tlb.Insert(hw.TLBKey{Space: 2, VPN: vpn}, hw.TLBEntry{PFN: vmtypes.PFN(vpn)})
	}
	tlb.FlushSpace(1)
	for vpn := uint64(0); vpn < 3; vpn++ {
		if _, ok := tlb.Lookup(hw.TLBKey{Space: 1, VPN: vpn}); ok {
			t.Fatal("space 1 should be flushed")
		}
		if _, ok := tlb.Lookup(hw.TLBKey{Space: 2, VPN: vpn}); !ok {
			t.Fatal("space 2 must survive")
		}
	}
	tlb.FlushAll()
	if tlb.Len() != 0 {
		t.Fatal("FlushAll left entries")
	}
}

func TestTLBNeverExceedsCapacity(t *testing.T) {
	// Property: whatever sequence of inserts happens, Len() <= size.
	err := quick.Check(func(vpns []uint16) bool {
		tlb := hw.NewTLB(8)
		for _, v := range vpns {
			tlb.Insert(hw.TLBKey{Space: uint32(v % 3), VPN: uint64(v)}, hw.TLBEntry{PFN: vmtypes.PFN(v)})
		}
		return tlb.Len() <= 8
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCPUDeferAndTick(t *testing.T) {
	m := hw.NewMachine(hw.Config{Cost: testCost(), HWPageSize: 512, PhysFrames: 8, CPUs: 2})
	cpu := m.CPU(0)
	ran := 0
	cpu.Defer(func(*hw.CPU) { ran++ })
	cpu.Defer(func(*hw.CPU) { ran++ })
	if cpu.DeferredLen() != 2 {
		t.Fatalf("DeferredLen = %d", cpu.DeferredLen())
	}
	cpu.Tick()
	if ran != 2 || cpu.DeferredLen() != 0 {
		t.Fatalf("tick ran %d, pending %d", ran, cpu.DeferredLen())
	}
	if cpu.TicksHandled() != 1 {
		t.Fatal("tick not counted")
	}
	// TickAll reaches every CPU.
	other := 0
	m.CPU(1).Defer(func(*hw.CPU) { other++ })
	m.TickAll()
	if other != 1 {
		t.Fatal("TickAll missed CPU 1")
	}
}

func TestMachineIPI(t *testing.T) {
	m := hw.NewMachine(hw.Config{Cost: testCost(), HWPageSize: 512, PhysFrames: 8, CPUs: 2})
	before := m.Clock.Now()
	hit := false
	m.IPI(m.CPU(1), func(c *hw.CPU) {
		if c.ID != 1 {
			t.Error("IPI ran on wrong CPU")
		}
		hit = true
	})
	if !hit {
		t.Fatal("IPI handler did not run")
	}
	if m.IPIsSent() != 1 || m.CPU(1).IPIsReceived() != 1 {
		t.Fatal("IPI accounting wrong")
	}
	if m.Clock.Now()-before != testCost().IPI {
		t.Fatalf("IPI cost = %d", m.Clock.Now()-before)
	}
}

func TestMachineCharges(t *testing.T) {
	m := hw.NewMachine(hw.Config{Cost: testCost(), HWPageSize: 1024, PhysFrames: 8, CPUs: 1})
	t0 := m.Clock.Now()
	m.ZeroFrame(0)
	if d := m.Clock.Now() - t0; d != testCost().ZeroPerKB {
		t.Fatalf("zero charge = %d", d)
	}
	t0 = m.Clock.Now()
	m.CopyFrame(0, 1)
	if d := m.Clock.Now() - t0; d != testCost().CopyPerKB {
		t.Fatalf("copy charge = %d", d)
	}
	t0 = m.Clock.Now()
	m.ChargeKB(1000, 512) // half a KB
	if d := m.Clock.Now() - t0; d != 500 {
		t.Fatalf("ChargeKB = %d", d)
	}
}

// TestChargeKBRoundsUp is the regression test for the sub-1KB truncation
// bug: perKB*bytes/1024 charged 0 virtual ns for short pager reads and
// sub-page DataWrite tails. Any nonzero transfer must cost at least its
// proportional share, rounded up.
func TestChargeKBRoundsUp(t *testing.T) {
	m := hw.NewMachine(hw.Config{Cost: testCost(), HWPageSize: 1024, PhysFrames: 8, CPUs: 1})
	cases := []struct {
		perKB int64
		bytes int
		want  int64
	}{
		{1000, 512, 500}, // exact half KB: unchanged by rounding
		{1000, 1024, 1000},
		{1000, 1, 1},   // 1 byte at 1000 ns/KB: ceil(1000/1024) = 1
		{400, 100, 40}, // ceil(40000/1024) = 40 (trunc gave 39)
		{1, 1, 1},      // smallest nonzero transfer is never free
		{1000, 0, 0},   // nothing moved, nothing charged
		{0, 512, 0},    // free rate stays free
	}
	for _, c := range cases {
		t0 := m.Clock.Now()
		m.ChargeKB(c.perKB, c.bytes)
		if d := m.Clock.Now() - t0; d != c.want {
			t.Errorf("ChargeKB(%d, %d) charged %d, want %d", c.perKB, c.bytes, d, c.want)
		}
	}
}

func TestMachineCPUPanicsOutOfRange(t *testing.T) {
	m := hw.NewMachine(hw.Config{Cost: testCost(), HWPageSize: 512, PhysFrames: 8, CPUs: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.CPU(3)
}

func TestHelpers(t *testing.T) {
	if hw.Microseconds(3) != 3000 || hw.Milliseconds(2) != 2000000 {
		t.Fatal("unit helpers wrong")
	}
}
