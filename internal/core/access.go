package core

import (
	"context"
	"errors"
	"fmt"

	"machvm/internal/hw"
	"machvm/internal/pmap"
	"machvm/internal/trace"
	"machvm/internal/vmtypes"
)

// ErrAccessFault is returned when a memory access cannot be resolved even
// after fault handling.
var ErrAccessFault = errors.New("vm: unresolvable memory access")

// maxFaultRetries bounds the access-fault-retry loop. Two retries suffice
// for every legitimate sequence (e.g. the NS32082's misreported write:
// translation fault serviced as read, then protection fault corrected to
// write); more indicates a kernel bug.
const maxFaultRetries = 8

// AccessBytes performs a user memory access of len(buf) bytes at va in
// map m on the given CPU: the full hardware path — TLB probe, table walk,
// fault, machine-dependent fault-report correction, retry. write selects
// load or store. It is the simulation's equivalent of user instructions
// touching memory.
func (k *Kernel) AccessBytes(cpu *hw.CPU, m *Map, va vmtypes.VA, buf []byte, write bool) error {
	return k.AccessBytesContext(context.Background(), cpu, m, va, buf, write)
}

// AccessBytesContext is AccessBytes with caller-controlled cancellation:
// an access stuck faulting against a slow pager returns when ctx fires.
func (k *Kernel) AccessBytesContext(ctx context.Context, cpu *hw.CPU, m *Map, va vmtypes.VA, buf []byte, write bool) error {
	t := k.TraceOp()
	access := vmtypes.ProtRead
	if write {
		access = vmtypes.ProtWrite
	}
	hwPage := uint64(k.machine.Mem.PageSize())
	var err error
	for done := 0; done < len(buf); {
		cur := uint64(va) + uint64(done)
		inPage := int(hwPage - cur%hwPage)
		n := len(buf) - done
		if n > inPage {
			n = inPage
		}
		var frame vmtypes.PFN
		if frame, err = k.resolveAccess(ctx, cpu, m, vmtypes.VA(cur), access); err != nil {
			err = fmt.Errorf("%w at %#x: %w", ErrAccessFault, cur, err)
			break
		}
		fb := k.machine.Mem.Frame(frame)
		off := int(cur % hwPage)
		k.machine.Mem.LockFrame(frame)
		if write {
			copy(fb[off:off+n], buf[done:done+n])
		} else {
			copy(buf[done:done+n], fb[off:off+n])
		}
		k.machine.Mem.UnlockFrame(frame)
		done += n
	}
	if t != nil {
		e := trace.Event{
			Map: m.id, CPU: -1, Addr: uint64(va),
			Size: uint64(len(buf)), Flag: write,
		}
		if cpu != nil {
			e.CPU = int64(cpu.ID)
		}
		if write {
			e.Data = trace.FillOf(buf)
		}
		t.End(trace.OpAccess, e, &err)
	}
	return err
}

// resolveAccess translates one access, servicing faults until it succeeds.
// Fault absorbs concurrent-map-mutation restarts internally (the version
// revalidation of DESIGN.md §7), so every iteration of this loop that
// returns nil made real progress: the bound only has to cover legitimate
// refault sequences, not mutator interference.
func (k *Kernel) resolveAccess(ctx context.Context, cpu *hw.CPU, m *Map, va vmtypes.VA, access vmtypes.Prot) (vmtypes.PFN, error) {
	for try := 0; try < maxFaultRetries; try++ {
		res := pmap.Access(k.mod, cpu, m.pm, va, access)
		if res.Fault == vmtypes.FaultNone {
			return res.PFN, nil
		}
		// The machine reports the fault as its MMU would (possibly
		// wrongly — the NS32082 bug); the machine-dependent hook
		// reconstructs the access the handler must service.
		serviced := res.Reported
		if res.Fault == vmtypes.FaultProtection {
			serviced = k.mod.CorrectFaultAccess(res.Reported, res.MappingProt)
		}
		if err := k.FaultContext(ctx, m, va, serviced); err != nil {
			return 0, err
		}
	}
	return 0, fmt.Errorf("access did not settle after %d faults", maxFaultRetries)
}

// Touch provokes a single access of the given type at va (fault benchmark
// helper).
func (k *Kernel) Touch(cpu *hw.CPU, m *Map, va vmtypes.VA, write bool) error {
	var b [1]byte
	return k.AccessBytes(cpu, m, va, b[:], write)
}

// TouchContext is Touch with caller-controlled cancellation.
func (k *Kernel) TouchContext(ctx context.Context, cpu *hw.CPU, m *Map, va vmtypes.VA, write bool) error {
	var b [1]byte
	return k.AccessBytesContext(ctx, cpu, m, va, b[:], write)
}

// CopyOut implements the data movement of vm_write: copy the contents of
// buf into the task address space at va, as the kernel (not through a
// CPU's TLB — the kernel's own mappings are always complete).
func (k *Kernel) CopyOut(m *Map, va vmtypes.VA, buf []byte) error {
	return k.kernelCopy(m, va, buf, true)
}

// CopyIn implements the data movement of vm_read: copy bytes out of the
// task address space into buf.
func (k *Kernel) CopyIn(m *Map, va vmtypes.VA, buf []byte) error {
	return k.kernelCopy(m, va, buf, false)
}

func (k *Kernel) kernelCopy(m *Map, va vmtypes.VA, buf []byte, write bool) error {
	access := vmtypes.ProtRead
	if write {
		access = vmtypes.ProtWrite
	}
	hwPage := uint64(k.machine.Mem.PageSize())
	done := 0
	for done < len(buf) {
		cur := uint64(va) + uint64(done)
		inPage := int(hwPage - cur%hwPage)
		n := len(buf) - done
		if n > inPage {
			n = inPage
		}
		var frame vmtypes.PFN
		resolved := false
		for try := 0; try < maxFaultRetries; try++ {
			// The kernel consults the pmap directly (pmap_extract);
			// on a miss it drives the same fault path a user access
			// would.
			if pfn, ok := m.pm.Extract(vmtypes.VA(cur)); ok {
				if !write || m.mappingWritable(vmtypes.VA(cur)) {
					frame = pfn
					resolved = true
					break
				}
			}
			if err := k.Fault(m, vmtypes.VA(cur), access); err != nil {
				return err
			}
		}
		if !resolved {
			return ErrAccessFault
		}
		fb := k.machine.Mem.Frame(frame)
		off := int(cur % hwPage)
		k.machine.ChargeKB(k.machine.Cost.CopyPerKB, n)
		k.machine.Mem.LockFrame(frame)
		if write {
			copy(fb[off:off+n], buf[done:done+n])
		} else {
			copy(buf[done:done+n], fb[off:off+n])
		}
		k.machine.Mem.UnlockFrame(frame)
		k.mod.MarkAccess(frame, write)
		done += n
	}
	return nil
}

// mappingWritable reports whether the hardware mapping at va permits
// writes (used by kernel copies to respect copy-on-write).
func (m *Map) mappingWritable(va vmtypes.VA) bool {
	pfn, prot, ok := m.pm.Walk(va)
	_ = pfn
	return ok && prot.Allows(vmtypes.ProtWrite)
}

// VMRead implements vm_read (Table 2-1): read the contents of a region of
// a task's address space.
func (k *Kernel) VMRead(m *Map, addr vmtypes.VA, size uint64) ([]byte, error) {
	t := k.TraceOp()
	k.machine.Charge(k.machine.Cost.Syscall)
	buf := make([]byte, size)
	err := k.CopyIn(m, addr, buf)
	if err != nil {
		buf = nil
	}
	if t != nil {
		t.End(trace.OpVMRead, trace.Event{
			Map: m.id, Addr: uint64(addr), Size: size,
			Ret: uint64(len(buf)),
		}, &err)
	}
	return buf, err
}

// VMWrite implements vm_write (Table 2-1): write the contents of a region
// of a task's address space.
func (k *Kernel) VMWrite(m *Map, addr vmtypes.VA, data []byte) error {
	t := k.TraceOp()
	k.machine.Charge(k.machine.Cost.Syscall)
	err := k.CopyOut(m, addr, data)
	if t != nil {
		t.End(trace.OpVMWrite, trace.Event{
			Map: m.id, Addr: uint64(addr), Size: uint64(len(data)),
			Data: trace.FillOf(data),
		}, &err)
	}
	return err
}

// Activate makes this map's address space current on cpu (pmap_activate),
// recorded as a trace input so replay binds the same space to the same
// CPU. Sharing and transit maps have no pmap and no-op.
func (m *Map) Activate(cpu *hw.CPU) {
	t := m.k.TraceOp()
	if m.pm != nil {
		m.pm.Activate(cpu)
	}
	if t != nil {
		t.End(trace.OpActivate, trace.Event{Map: m.id, CPU: int64(cpu.ID)}, nil)
	}
}

// Deactivate releases this map's address space from cpu (pmap_deactivate).
func (m *Map) Deactivate(cpu *hw.CPU) {
	t := m.k.TraceOp()
	if m.pm != nil {
		m.pm.Deactivate(cpu)
	}
	if t != nil {
		t.End(trace.OpDeactivate, trace.Event{Map: m.id, CPU: int64(cpu.ID)}, nil)
	}
}
