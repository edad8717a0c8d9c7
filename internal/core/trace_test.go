package core_test

import (
	"testing"

	"machvm/internal/trace"
	"machvm/internal/vmtypes"
)

// TestTraceOpsCarryCallerArguments issues every op the kernel records
// once, with a size that is not a page multiple, and requires the one
// event each leaves behind to carry the arguments as the caller passed
// them — not as the body rounded or reassigned them — together with what
// the call returned.
func TestTraceOpsCarryCallerArguments(t *testing.T) {
	const size = 5000 // rounds to two 4 KB pages inside every body
	k, machine := newVAXKernel(t, 2)
	cpu := machine.CPU(1)
	m := k.NewMap()
	m.Activate(cpu)
	log := trace.NewLog()
	k.SetTracer(log)
	defer k.SetTracer(nil)

	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	// Every row gets a fresh two-page region at va and returns the event
	// its one call must have recorded (Time is not compared).
	rows := []struct {
		name string
		do   func(va vmtypes.VA) trace.Event
	}{
		{"new-map", func(vmtypes.VA) trace.Event {
			nm := k.NewMap()
			return trace.Event{Kind: trace.OpNewMap, Ret: nm.ID()}
		}},
		{"destroy-map", func(vmtypes.VA) trace.Event {
			k.SetTracer(nil)
			nm := k.NewMap()
			k.SetTracer(log)
			nm.Destroy()
			return trace.Event{Kind: trace.OpDestroyMap, Map: nm.ID()}
		}},
		{"activate", func(vmtypes.VA) trace.Event {
			m.Activate(cpu)
			return trace.Event{Kind: trace.OpActivate, Map: m.ID(), CPU: 1}
		}},
		{"deactivate", func(vmtypes.VA) trace.Event {
			m.Deactivate(machine.CPU(0))
			return trace.Event{Kind: trace.OpDeactivate, Map: m.ID(), CPU: 0}
		}},
		{"allocate", func(vmtypes.VA) trace.Event {
			got, err := m.Allocate(0, size, true)
			return trace.Event{Kind: trace.OpAllocate, Map: m.ID(), Size: size, Flag: true,
				Ret: uint64(got), Err: errText(err)}
		}},
		{"allocate-misaligned", func(vmtypes.VA) trace.Event {
			got, err := m.Allocate(123, size, false)
			if err == nil {
				t.Error("misaligned Allocate succeeded")
			}
			return trace.Event{Kind: trace.OpAllocate, Map: m.ID(), Addr: 123, Size: size,
				Ret: uint64(got), Err: errText(err)}
		}},
		{"alloc-object", func(vmtypes.VA) trace.Event {
			k.SetTracer(nil)
			obj := k.NewObject(4*4096, nil, "traced")
			k.SetTracer(log)
			got, err := m.AllocateWithObject(0, size, true, obj, 4096,
				vmtypes.ProtRead, vmtypes.ProtAll, vmtypes.InheritShared, true)
			return trace.Event{Kind: trace.OpAllocObject, Map: m.ID(), Obj: obj.ID(),
				Addr2: 4096, Size: size, Flag: true,
				Arg: int64(vmtypes.ProtRead) | int64(vmtypes.ProtAll)<<8 | int64(vmtypes.InheritShared)<<16 | 1<<24,
				Ret: uint64(got), Err: errText(err)}
		}},
		{"deallocate", func(va vmtypes.VA) trace.Event {
			err := m.Deallocate(va, size)
			return trace.Event{Kind: trace.OpDeallocate, Map: m.ID(), Addr: uint64(va), Size: size, Err: errText(err)}
		}},
		{"protect", func(va vmtypes.VA) trace.Event {
			err := m.Protect(va, size, true, vmtypes.ProtRead)
			return trace.Event{Kind: trace.OpProtect, Map: m.ID(), Addr: uint64(va), Size: size,
				Flag: true, Arg: int64(vmtypes.ProtRead), Err: errText(err)}
		}},
		{"protect-hole", func(va vmtypes.VA) trace.Event {
			err := m.Protect(va+2*4096, size, false, vmtypes.ProtRead)
			if err == nil {
				t.Error("Protect of unallocated memory succeeded")
			}
			return trace.Event{Kind: trace.OpProtect, Map: m.ID(), Addr: uint64(va) + 2*4096, Size: size,
				Arg: int64(vmtypes.ProtRead), Err: errText(err)}
		}},
		{"inherit", func(va vmtypes.VA) trace.Event {
			err := m.SetInherit(va, size, vmtypes.InheritNone)
			return trace.Event{Kind: trace.OpInherit, Map: m.ID(), Addr: uint64(va), Size: size,
				Arg: int64(vmtypes.InheritNone), Err: errText(err)}
		}},
		{"wire", func(va vmtypes.VA) trace.Event {
			err := m.Wire(va, size)
			return trace.Event{Kind: trace.OpWire, Map: m.ID(), Addr: uint64(va), Size: size, Err: errText(err)}
		}},
		{"unwire", func(va vmtypes.VA) trace.Event {
			err := m.Unwire(va, size)
			return trace.Event{Kind: trace.OpUnwire, Map: m.ID(), Addr: uint64(va), Size: size, Err: errText(err)}
		}},
		{"copy", func(va vmtypes.VA) trace.Event {
			dst := va + 16*4096
			err := m.Copy(va, size, dst)
			return trace.Event{Kind: trace.OpCopy, Map: m.ID(), Addr: uint64(va), Size: size,
				Addr2: uint64(dst), Err: errText(err)}
		}},
		{"copy-to", func(va vmtypes.VA) trace.Event {
			k.SetTracer(nil)
			dst := k.NewMap()
			k.SetTracer(log)
			got, err := m.CopyTo(dst, va, size, 0, true)
			return trace.Event{Kind: trace.OpCopyTo, Map: m.ID(), Map2: dst.ID(), Addr: uint64(va),
				Size: size, Flag: true, Ret: uint64(got), Err: errText(err)}
		}},
		{"fork", func(vmtypes.VA) trace.Event {
			child := m.Fork()
			return trace.Event{Kind: trace.OpFork, Map: m.ID(), Ret: child.ID()}
		}},
		{"fault", func(va vmtypes.VA) trace.Event {
			err := k.Fault(m, va+100, vmtypes.ProtWrite)
			return trace.Event{Kind: trace.OpFault, Map: m.ID(), Addr: uint64(va) + 100,
				Arg: int64(vmtypes.ProtWrite), Err: errText(err)}
		}},
		{"fault-no-entry", func(va vmtypes.VA) trace.Event {
			err := k.Fault(m, va+2*4096+1, vmtypes.ProtRead)
			if err == nil {
				t.Error("Fault on unallocated memory succeeded")
			}
			return trace.Event{Kind: trace.OpFault, Map: m.ID(), Addr: uint64(va) + 2*4096 + 1,
				Arg: int64(vmtypes.ProtRead), Err: errText(err)}
		}},
		{"access-write", func(va vmtypes.VA) trace.Event {
			data := []byte{1, 2, 3, 4, 5}
			err := k.AccessBytes(cpu, m, va+4094, data, true) // straddles a page
			return trace.Event{Kind: trace.OpAccess, Map: m.ID(), CPU: 1, Addr: uint64(va) + 4094,
				Size: 5, Flag: true, Data: trace.FillOf(data), Err: errText(err)}
		}},
		{"access-read", func(va vmtypes.VA) trace.Event {
			err := k.AccessBytes(cpu, m, va+7, make([]byte, 3), false)
			return trace.Event{Kind: trace.OpAccess, Map: m.ID(), CPU: 1, Addr: uint64(va) + 7,
				Size: 3, Err: errText(err)}
		}},
		{"vm-read", func(va vmtypes.VA) trace.Event {
			buf, err := k.VMRead(m, va+1, size)
			return trace.Event{Kind: trace.OpVMRead, Map: m.ID(), Addr: uint64(va) + 1, Size: size,
				Ret: uint64(len(buf)), Err: errText(err)}
		}},
		{"vm-write", func(va vmtypes.VA) trace.Event {
			data := []byte("caller's bytes")
			err := k.VMWrite(m, va+9, data)
			return trace.Event{Kind: trace.OpVMWrite, Map: m.ID(), Addr: uint64(va) + 9,
				Size: uint64(len(data)), Data: trace.FillOf(data), Err: errText(err)}
		}},
		{"scan", func(vmtypes.VA) trace.Event {
			return trace.Event{Kind: trace.OpScan, Ret: uint64(k.PageoutScan())}
		}},
		{"release-object", func(vmtypes.VA) trace.Event {
			k.SetTracer(nil)
			obj := k.NewObject(4096, nil, "released")
			k.SetTracer(log)
			k.ReleaseObjectRef(obj)
			return trace.Event{Kind: trace.OpReleaseObject, Obj: obj.ID()}
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			k.SetTracer(nil)
			va, err := m.Allocate(0, 2*4096, true)
			if err != nil {
				t.Fatal(err)
			}
			k.SetTracer(log)
			before := log.Len()
			want := r.do(va)

			var ops []trace.Event
			for _, e := range log.Events()[before:] {
				if e.Kind.IsOp() {
					ops = append(ops, e)
				}
			}
			if len(ops) != 1 {
				t.Fatalf("recorded %d ops, want 1: %v", len(ops), ops)
			}
			want.Time = ops[0].Time
			if !ops[0].Equal(want) {
				t.Fatalf("recorded event differs from the call:\n got  %s\n want %s", ops[0], want)
			}
		})
	}
}
