package workload_test

import (
	"testing"

	"machvm/internal/workload"
)

// TestCalibrationPrint prints the Table 7-1 micro-operations for each
// architecture so the cost models can be tuned against the paper's
// numbers. Run with -v to see the values; assertions only check the
// qualitative shape (who wins), which is what the reproduction promises.
func TestCalibrationPrint(t *testing.T) {
	type rowResult struct {
		arch     workload.Arch
		zfMach   int64
		zfUnix   int64
		forkMach int64
		forkUnix int64
	}
	for _, a := range []workload.Arch{workload.ArchRTPC, workload.ArchUVAX2, workload.ArchSun3} {
		mw := machWorld(t, a, workload.WithMemoryMB(8))
		uw := unixWorld(t, a, workload.WithMemoryMB(8))

		zfM, err := workload.MachZeroFill(mw, 1024, 50)
		if err != nil {
			t.Fatalf("%v MachZeroFill: %v", a, err)
		}
		zfU, err := workload.UnixZeroFill(uw, 1024, 50)
		if err != nil {
			t.Fatalf("%v UnixZeroFill: %v", a, err)
		}
		fkM, err := workload.MachFork(mw, 256*1024, 10)
		if err != nil {
			t.Fatalf("%v MachFork: %v", a, err)
		}
		fkU, err := workload.UnixFork(uw, 256*1024, 10)
		if err != nil {
			t.Fatalf("%v UnixFork: %v", a, err)
		}
		t.Logf("%-12s zero-fill 1K: mach=%.2fms unix=%.2fms | fork 256K: mach=%.1fms unix=%.1fms",
			a, float64(zfM)/1e6, float64(zfU)/1e6, float64(fkM)/1e6, float64(fkU)/1e6)
		if zfM >= zfU {
			t.Errorf("%v: Mach zero-fill (%d) should beat UNIX (%d)", a, zfM, zfU)
		}
		if fkM >= fkU {
			t.Errorf("%v: Mach fork (%d) should beat UNIX (%d)", a, fkM, fkU)
		}
	}

	// File reads on the VAX 8200.
	mw := machWorld(t, workload.ArchVAX8200, workload.WithMemoryMB(16))
	uw := unixWorld(t, workload.ArchVAX8200, workload.WithMemoryMB(16), workload.WithNBufs(400))
	big := 2500 * 1024
	small := 50 * 1024
	mBig, err := workload.MachFileRead(mw, big)
	if err != nil {
		t.Fatal(err)
	}
	uBig, err := workload.UnixFileRead(uw, big)
	if err != nil {
		t.Fatal(err)
	}
	mSmall, err := workload.MachFileRead(mw, small)
	if err != nil {
		t.Fatal(err)
	}
	uSmall, err := workload.UnixFileRead(uw, small)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("read 2.5M: mach first=%.2fs second=%.2fs | unix first=%.2fs second=%.2fs",
		float64(mBig.First)/1e9, float64(mBig.Second)/1e9, float64(uBig.First)/1e9, float64(uBig.Second)/1e9)
	t.Logf("read 50K:  mach first=%.2fs second=%.2fs | unix first=%.2fs second=%.2fs",
		float64(mSmall.First)/1e9, float64(mSmall.Second)/1e9, float64(uSmall.First)/1e9, float64(uSmall.Second)/1e9)

	// Shape: Mach's second big read is much cheaper than its first
	// (object cache); UNIX's is not (2.5MB > 400 buffers).
	if mBig.Second*3 >= mBig.First {
		t.Errorf("Mach second 2.5M read %.2fs not ≪ first %.2fs", float64(mBig.Second)/1e9, float64(mBig.First)/1e9)
	}
	if uBig.Second*2 < uBig.First {
		t.Errorf("UNIX second 2.5M read should not be cached (400 buffers): first=%.2fs second=%.2fs",
			float64(uBig.First)/1e9, float64(uBig.Second)/1e9)
	}
	// The 50K file fits both systems' caches: second reads are cheap.
	if uSmall.Second*2 >= uSmall.First {
		t.Errorf("UNIX second 50K read should be cached: first=%.2fs second=%.2fs",
			float64(uSmall.First)/1e9, float64(uSmall.Second)/1e9)
	}
}
