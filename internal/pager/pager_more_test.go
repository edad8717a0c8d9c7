package pager_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"machvm/internal/core"
	"machvm/internal/hw"
	"machvm/internal/ipc"
	"machvm/internal/pager"
	"machvm/internal/pmap"
	"machvm/internal/pmap/vax"
	"machvm/internal/unixfs"
	"machvm/internal/vmtypes"
)

func TestSwapPagerRoundTrip(t *testing.T) {
	k, _, fs := newWorld(t)
	sp := pager.NewSwapPager(fs)
	obj := k.NewObject(16*4096, nil, "swap-client")
	sp.Init(obj)

	ctx := context.Background()
	// Nothing stored yet: unavailable.
	if _, err := sp.DataRequest(ctx, obj, 0, 4096); !errors.Is(err, core.ErrDataUnavailable) {
		t.Fatalf("fresh swap should be unavailable, got %v", err)
	}
	data := bytes.Repeat([]byte{0xEE}, 4096)
	if err := sp.DataWrite(ctx, obj, 8192, data); err != nil {
		t.Fatalf("DataWrite: %v", err)
	}
	got, err := sp.DataRequest(ctx, obj, 8192, 4096)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("swap round trip failed: %v", err)
	}
	// The swap file grew past offsets 0 and 4096 without receiving them:
	// they are unavailable, not a hole's worth of zeroes.
	if d, err := sp.DataRequest(ctx, obj, 0, 4096); !errors.Is(err, core.ErrDataUnavailable) {
		t.Fatalf("never-written swap offset should be unavailable, got %d bytes, %v", len(d), err)
	}
	// A clustered request returns the written prefix and stops at the gap.
	if err := sp.DataWrite(ctx, obj, 0, data); err != nil {
		t.Fatalf("DataWrite: %v", err)
	}
	if d, err := sp.DataRequest(ctx, obj, 0, 4*4096); err != nil || len(d) != 4096 {
		t.Fatalf("clustered request across a gap: got %d bytes, %v; want the 4096 written", len(d), err)
	}
	// Terminate releases the swap file.
	sp.Terminate(obj)
	if _, err := sp.DataRequest(ctx, obj, 8192, 4096); !errors.Is(err, core.ErrDataUnavailable) {
		t.Fatalf("terminated object should have no swap, got %v", err)
	}
	if sp.Name() == "" {
		t.Fatal("pager needs a name")
	}
}

// TestSwapPagerHoleFallsThroughShadowChain: a shadow object that has paged
// out only its page 1 must not answer for page 0, or the zeroes of the swap
// file's hole hide the data the backing object holds.
func TestSwapPagerHoleFallsThroughShadowChain(t *testing.T) {
	machine := hw.NewMachine(hw.Config{
		Cost:       vax.DefaultCost(),
		HWPageSize: vax.HWPageSize,
		PhysFrames: 4096,
		CPUs:       1,
		TLBSize:    64,
	})
	k := core.MustNewKernel(core.Config{
		Machine:    machine,
		Module:     vax.New(machine, pmap.ShootImmediate),
		PageSize:   4096,
		FreeTarget: 4096, // more than exists: the scan evicts everything
		FreeMin:    2,
	})
	k.SetSwapPager(pager.NewSwapPager(unixfs.NewFS(unixfs.NewDisk(machine, 8192))))
	cpu := machine.CPU(0)

	parent := k.NewMap()
	defer parent.Destroy()
	parent.Pmap().Activate(cpu)
	addr, err := parent.Allocate(0, 2*4096, true)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{0xAB}, 4096)
	if err := k.AccessBytes(cpu, parent, addr, want, true); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork()
	defer child.Destroy()
	child.Pmap().Activate(cpu)
	if err := k.AccessBytes(cpu, child, addr+4096, []byte{1}, true); err != nil {
		t.Fatal(err)
	}
	// A scan evicts the oldest third of the resident pages: six younger
	// filler pages make that the two pages written above.
	filler, err := child.Allocate(0, 6*4096, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AccessBytes(cpu, child, filler, make([]byte, 6*4096), true); err != nil {
		t.Fatal(err)
	}
	k.PageoutScan()
	pageins := k.Stats().Pageins.Load()
	got := make([]byte, 4096)
	if err := k.AccessBytes(cpu, child, addr, got, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("child read %#x... for the inherited page, want %#x...", got[:4], want[:4])
	}
	if k.Stats().Pageins.Load() == pageins {
		t.Fatal("the inherited page was still resident: the read never reached the pager")
	}
}

func TestInodePagerEdges(t *testing.T) {
	k, _, fs := newWorld(t)
	ip := pager.NewInodePager(fs)
	if _, err := ip.NewFileObject(k, "missing"); err == nil {
		t.Fatal("mapping a missing file should fail")
	}
	content := bytes.Repeat([]byte{3}, 6000) // not page aligned
	ino, err := fs.Create("odd", content)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := ip.NewFileObject(k, "odd")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// The object rounds up to a page; the tail past EOF is unavailable
	// at page granularity only beyond the last byte.
	data, err := ip.DataRequest(ctx, obj, 4096, 4096)
	if err != nil {
		t.Fatalf("page containing EOF must be available: %v", err)
	}
	if len(data) != 4096 || data[6000-4096-1] != 3 {
		t.Fatal("EOF page content wrong")
	}
	if _, err := ip.DataRequest(ctx, obj, 8192, 4096); !errors.Is(err, core.ErrDataUnavailable) {
		t.Fatalf("page past EOF must be unavailable, got %v", err)
	}
	// DataWrite past the logical size must not grow the file.
	grown := bytes.Repeat([]byte{7}, 4096)
	if err := ip.DataWrite(ctx, obj, 4096, grown); err != nil {
		t.Fatalf("DataWrite: %v", err)
	}
	if ino.Size() != 6000 {
		t.Fatalf("pageout grew the file to %d", ino.Size())
	}
	// But the in-range part must land.
	check := make([]byte, 100)
	if _, err := ino.ReadAt(check, 4096); err != nil {
		t.Fatal(err)
	}
	if check[0] != 7 {
		t.Fatal("pageout data did not land in the file")
	}
	// Writes entirely past EOF are dropped.
	if err := ip.DataWrite(ctx, obj, 16384, grown); err != nil {
		t.Fatalf("past-EOF DataWrite should be a silent no-op: %v", err)
	}
	if ino.Size() != 6000 {
		t.Fatal("fully-past-EOF pageout grew the file")
	}
	// Bind an unrelated object explicitly.
	other := k.NewObject(4096, nil, "bound")
	ip.Bind(other, ino)
	if d, err := ip.DataRequest(ctx, other, 0, 4096); err != nil || d[0] != 3 {
		t.Fatalf("Bind did not attach the inode: %v", err)
	}
	ip.Terminate(obj)
	if _, err := ip.DataRequest(ctx, obj, 0, 4096); !errors.Is(err, core.ErrDataUnavailable) {
		t.Fatalf("terminated object still served: %v", err)
	}
}

func TestExternalObjectCleanAndFlushMessages(t *testing.T) {
	k, machine, _ := newWorld(t)
	cpu := machine.CPU(0)
	store := map[uint64][]byte{}
	var storeMu = make(chan struct{}, 1)
	storeMu <- struct{}{}

	up := pager.NewUserPager("cf")
	up.OnRequest = func(req pager.DataRequest) {
		<-storeMu
		d, ok := store[req.Offset]
		storeMu <- struct{}{}
		if !ok {
			req.Unavailable()
			return
		}
		req.Provide(d, 0)
	}
	up.OnWrite = func(offset uint64, data []byte) {
		<-storeMu
		store[offset] = data
		storeMu <- struct{}{}
	}
	defer up.Stop()

	eo, obj := pager.NewExternalObject(k, up.Port, 4*4096, "cf")
	m := k.NewMap()
	defer m.Destroy()
	m.Pmap().Activate(cpu)
	addr, _ := m.AllocateWithObject(0, obj.Size(), true, obj, 0,
		vmtypes.ProtDefault, vmtypes.ProtAll, vmtypes.InheritCopy, false)
	if err := k.AccessBytes(cpu, m, addr, []byte("to be cleaned"), true); err != nil {
		t.Fatal(err)
	}

	// pager_clean_request via the message protocol, with a reply.
	reply := ipc.NewPort("clean-reply")
	if err := eo.Ports().RequestPort.Send(&ipc.Message{
		ID:    ipc.MsgPagerCleanRequest,
		Items: []ipc.Item{ipc.Int(0), ipc.Int(obj.Size())},
		Reply: reply,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reply.Receive(); err != nil {
		t.Fatal(err)
	}
	// The pager_data_write travels asynchronously to the user pager.
	deadline := time.Now().Add(2 * time.Second)
	for {
		<-storeMu
		d := store[0]
		storeMu <- struct{}{}
		if bytes.HasPrefix(d, []byte("to be cleaned")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("clean never delivered the dirty page: %q", d)
		}
		time.Sleep(time.Millisecond)
	}

	// pager_flush_request destroys the cached copy.
	reply2 := ipc.NewPort("flush-reply")
	if err := eo.Ports().RequestPort.Send(&ipc.Message{
		ID:    ipc.MsgPagerFlushRequest,
		Items: []ipc.Item{ipc.Int(0), ipc.Int(obj.Size())},
		Reply: reply2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reply2.Receive(); err != nil {
		t.Fatal(err)
	}
	if obj.Resident() != 0 {
		t.Fatal("flush left resident pages")
	}
	// The data still round-trips via the pager.
	b := make([]byte, 5)
	if err := k.AccessBytes(cpu, m, addr, b, false); err != nil {
		t.Fatal(err)
	}
	if string(b) != "to be" {
		t.Fatalf("post-flush refault read %q", b)
	}
}

func TestPagerReadonlyMessage(t *testing.T) {
	k, _, _ := newWorld(t)
	up := pager.NewUserPager("ro")
	up.OnRequest = func(req pager.DataRequest) { req.Unavailable() }
	defer up.Stop()
	eo, _ := pager.NewExternalObject(k, up.Port, 4096, "ro")
	if eo.Readonly() {
		t.Fatal("fresh object should not be readonly")
	}
	if err := eo.Ports().RequestPort.Send(&ipc.Message{ID: ipc.MsgPagerReadonly}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for !eo.Readonly() {
		if time.Now().After(deadline) {
			t.Fatal("pager_readonly never registered")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestExternalObjectTimeout(t *testing.T) {
	k, machine, _ := newWorld(t)
	cpu := machine.CPU(0)
	// A pager that never answers: under the default degradation policy
	// (FallbackError) the fault must surface ErrPagerTimeout rather than
	// hanging forever.
	k.SetPagerPolicy(core.PagerPolicy{
		Deadline: 50 * time.Millisecond,
		Retries:  -1,
	})
	up := pager.NewUserPager("mute")
	up.OnRequest = func(req pager.DataRequest) { /* silence */ }
	defer up.Stop()
	eo, obj := pager.NewExternalObject(k, up.Port, 4096, "mute")
	_ = eo
	m := k.NewMap()
	defer m.Destroy()
	m.Pmap().Activate(cpu)
	addr, _ := m.AllocateWithObject(0, 4096, true, obj, 0,
		vmtypes.ProtDefault, vmtypes.ProtAll, vmtypes.InheritCopy, false)
	b := []byte{9}
	done := make(chan error, 1)
	go func() { done <- k.AccessBytes(cpu, m, addr, b, false) }()
	select {
	case err := <-done:
		if !errors.Is(err, core.ErrPagerTimeout) {
			t.Fatalf("mute pager should surface ErrPagerTimeout, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fault hung on a mute pager")
	}
	if got := k.VMStatistics().PagerTimeouts; got == 0 {
		t.Fatal("PagerTimeouts statistic not incremented")
	}
}

func TestExternalObjectTimeoutZeroFillFallback(t *testing.T) {
	k, machine, _ := newWorld(t)
	cpu := machine.CPU(0)
	// With the object's degradation policy set to zero-fill, the same
	// mute pager degrades to a zero page instead of an error.
	k.SetPagerPolicy(core.PagerPolicy{
		Deadline: 50 * time.Millisecond,
		Retries:  -1,
	})
	up := pager.NewUserPager("mute-zf")
	up.OnRequest = func(req pager.DataRequest) { /* silence */ }
	defer up.Stop()
	_, obj := pager.NewExternalObject(k, up.Port, 4096, "mute-zf")
	obj.SetPagerFallback(core.FallbackZeroFill)
	m := k.NewMap()
	defer m.Destroy()
	m.Pmap().Activate(cpu)
	addr, _ := m.AllocateWithObject(0, 4096, true, obj, 0,
		vmtypes.ProtDefault, vmtypes.ProtAll, vmtypes.InheritCopy, false)
	b := []byte{9}
	done := make(chan error, 1)
	go func() { done <- k.AccessBytes(cpu, m, addr, b, false) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("zero-fill fallback should succeed: %v", err)
		}
		if b[0] != 0 {
			t.Fatal("fallback should read zero")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fault hung on a mute pager")
	}
	if got := k.VMStatistics().PagerFallbacks; got == 0 {
		t.Fatal("PagerFallbacks statistic not incremented")
	}
}
