package machvm_test

// Public-API tests: everything a downstream user does goes through the
// machvm facade, so these tests double as documentation of the supported
// surface.

import (
	"bytes"
	"fmt"
	"testing"

	"machvm"
)

func TestFacadeBootAllArchitectures(t *testing.T) {
	if _, err := machvm.New(machvm.Arch(99), machvm.Options{}); err == nil {
		t.Fatal("New: expected an error for an unknown architecture")
	}
	for _, arch := range []machvm.Arch{
		machvm.VAX, machvm.VAX8200, machvm.VAX8650,
		machvm.RTPC, machvm.Sun3, machvm.NS32082, machvm.TLBOnly,
	} {
		sys := machvm.MustNew(arch, machvm.Options{MemoryMB: 4})
		if sys.Arch() != arch {
			t.Fatalf("arch mismatch")
		}
		tk := sys.NewTask("boot")
		th := tk.SpawnThread(sys.CPU(0))
		addr, err := tk.Map.Allocate(0, 32<<10, true)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		if err := th.Write(addr, []byte("portable")); err != nil {
			t.Fatalf("%v write: %v", arch, err)
		}
		b := make([]byte, 8)
		if err := th.Read(addr, b); err != nil {
			t.Fatalf("%v read: %v", arch, err)
		}
		if string(b) != "portable" {
			t.Fatalf("%v: got %q", arch, b)
		}
		if sys.VirtualTime() == 0 {
			t.Fatalf("%v: virtual clock never advanced", arch)
		}
		st := sys.Statistics()
		if st.Faults == 0 || st.ZeroFillFaults == 0 {
			t.Fatalf("%v: statistics empty: %+v", arch, st)
		}
		tk.Destroy()
	}
}

func TestFacadeMapFile(t *testing.T) {
	sys := machvm.MustNew(machvm.VAX8200, machvm.Options{MemoryMB: 8})
	content := bytes.Repeat([]byte("mapped file content "), 500)
	if _, err := sys.FS().Create("doc.txt", content); err != nil {
		t.Fatal(err)
	}
	tk := sys.NewTask("reader")
	defer tk.Destroy()
	th := tk.SpawnThread(sys.CPU(0))
	addr, size, err := sys.MapFile(tk, "doc.txt", machvm.ProtRead)
	if err != nil {
		t.Fatal(err)
	}
	if size < uint64(len(content)) {
		t.Fatalf("mapped size %d < content %d", size, len(content))
	}
	got := make([]byte, len(content))
	if err := th.Read(addr, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Fatal("mapped file content mismatch")
	}
	// ReadFile path too.
	buf := make([]byte, len(content))
	n, err := sys.ReadFile(sys.CPU(0), tk, "doc.txt", buf)
	if err != nil || n != len(content) {
		t.Fatalf("ReadFile = %d, %v", n, err)
	}
	if !bytes.Equal(buf[:n], content) {
		t.Fatal("ReadFile content mismatch")
	}
}

func TestFacadeUserPager(t *testing.T) {
	sys := machvm.MustNew(machvm.TLBOnly, machvm.Options{MemoryMB: 8})
	up := machvm.NewUserPager("facade")
	defer up.Stop()
	up.OnRequest = func(req machvm.DataRequest) {
		data := bytes.Repeat([]byte{0x42}, req.Length)
		req.Provide(data, 0)
	}
	obj := sys.NewUserPagerObject(up, 64<<10, "facade-obj")
	tk := sys.NewTask("client")
	defer tk.Destroy()
	th := tk.SpawnThread(sys.CPU(0))
	addr, err := tk.Map.AllocateWithObject(0, obj.Size(), true, obj, 0,
		machvm.ProtDefault, machvm.ProtAll, machvm.InheritCopy, false)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 4)
	if err := th.Read(addr+8192, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0x42 {
		t.Fatalf("user pager data missing: %x", b[0])
	}
}

func TestFacadeOOLTransfer(t *testing.T) {
	sys := machvm.MustNew(machvm.RTPC, machvm.Options{MemoryMB: 8, CPUs: 2})
	src := sys.NewTask("src")
	dst := sys.NewTask("dst")
	defer src.Destroy()
	defer dst.Destroy()
	ths := src.SpawnThread(sys.CPU(0))
	thd := dst.SpawnThread(sys.CPU(1))

	addr, _ := src.Map.Allocate(0, 128<<10, true)
	payload := bytes.Repeat([]byte("ool"), 128<<10/3)
	if err := ths.Write(addr, payload); err != nil {
		t.Fatal(err)
	}
	region, err := sys.MoveOut(src, addr, 128<<10, true)
	if err != nil {
		t.Fatal(err)
	}
	port := machvm.NewPort("xfer")
	if err := port.Send(&machvm.Message{Items: []machvm.Item{{OOL: region}}}); err != nil {
		t.Fatal(err)
	}
	msg, err := port.Receive()
	if err != nil {
		t.Fatal(err)
	}
	at, err := sys.MoveIn(msg.Items[0].OOL, dst)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload))
	if err := thd.Read(at, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted in transfer")
	}
}

func TestFacadeShootdownOption(t *testing.T) {
	for _, s := range []machvm.ShootdownStrategy{machvm.ShootImmediate, machvm.ShootDeferred, machvm.ShootLazy} {
		sys := machvm.MustNew(machvm.NS32082, machvm.Options{MemoryMB: 4, CPUs: 2, Strategy: s})
		if sys.PmapModule().Shootdown().Strategy() != s {
			t.Fatalf("strategy not applied: %v", s)
		}
	}
}

func TestFacadeForkIsolation(t *testing.T) {
	sys := machvm.MustNew(machvm.Sun3, machvm.Options{MemoryMB: 8})
	parent := sys.NewTask("p")
	defer parent.Destroy()
	th := parent.SpawnThread(sys.CPU(0))
	addr, _ := parent.Map.Allocate(0, 64<<10, true)
	if err := th.Write(addr, []byte{1}); err != nil {
		t.Fatal(err)
	}
	child := parent.Fork("c")
	defer child.Destroy()
	thc := child.SpawnThread(sys.CPU(0))
	if err := thc.Write(addr, []byte{2}); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if err := th.Read(addr, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 {
		t.Fatal("fork isolation broken through the facade")
	}
}

// ExampleNew demonstrates the basic public API: boot a machine, make a
// task, allocate and touch memory, fork.
func ExampleNew() {
	sys := machvm.MustNew(machvm.VAX, machvm.Options{MemoryMB: 4})
	tk := sys.NewTask("example")
	th := tk.SpawnThread(sys.CPU(0))

	addr, _ := tk.Map.Allocate(0, 32<<10, true)
	_ = th.Write(addr, []byte("machine independent"))

	child := tk.Fork("child")
	cth := child.SpawnThread(sys.CPU(0))
	buf := make([]byte, 19)
	_ = cth.Read(addr, buf)
	fmt.Println(string(buf))
	// Output: machine independent
}

// ExampleSystem_MoveOut shows a whole region moving between tasks in one
// message with no physical copy.
func ExampleSystem_MoveOut() {
	sys := machvm.MustNew(machvm.Sun3, machvm.Options{MemoryMB: 8})
	src := sys.NewTask("src")
	dst := sys.NewTask("dst")
	ths := src.SpawnThread(sys.CPU(0))

	addr, _ := src.Map.Allocate(0, 64<<10, true)
	_ = ths.Write(addr, []byte("bulk payload"))

	region, _ := sys.MoveOut(src, addr, 64<<10, true)
	at, _ := sys.MoveIn(region, dst)

	thd := dst.SpawnThread(sys.CPU(0))
	buf := make([]byte, 12)
	_ = thd.Read(at, buf)
	fmt.Println(string(buf))
	// Output: bulk payload
}
