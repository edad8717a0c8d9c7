package workload_test

import (
	"testing"

	"machvm/internal/workload"
)

// TestCompileWorkloadShape checks the Table 7-2 shape: Mach's compile
// times are nearly insensitive to the buffer configuration, while the
// traditional system collapses under the generic (small) configuration.
func TestCompileWorkloadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("compile workload is heavyweight")
	}
	cfg := workload.ThirteenPrograms()

	run := func(nbufs int) (mach, unix int64) {
		mw := machWorld(t, workload.ArchVAX8650, workload.WithMemoryMB(16), workload.WithDiskMB(128))
		uw := unixWorld(t, workload.ArchVAX8650, workload.WithMemoryMB(16), workload.WithDiskMB(128), workload.WithNBufs(nbufs))
		m, err := workload.MachCompile(mw, cfg)
		if err != nil {
			t.Fatalf("MachCompile: %v", err)
		}
		u, err := workload.UnixCompile(uw, cfg)
		if err != nil {
			t.Fatalf("UnixCompile: %v", err)
		}
		return m, u
	}

	mach400, unix400 := run(400)
	machGen, unixGen := run(64) // "generic configuration": few buffers

	t.Logf("13 programs, 400 buffers: mach=%.0fs unix=%.0fs (paper: 23s / 28s)",
		float64(mach400)/1e9, float64(unix400)/1e9)
	t.Logf("13 programs, generic:     mach=%.0fs unix=%.0fs (paper: 19s / 76s)",
		float64(machGen)/1e9, float64(unixGen)/1e9)

	if mach400 >= unix400 {
		t.Errorf("Mach should win at 400 buffers: %d vs %d", mach400, unix400)
	}
	if machGen >= unixGen {
		t.Errorf("Mach should win at generic config: %d vs %d", machGen, unixGen)
	}
	// Mach is nearly configuration-insensitive...
	if float64(machGen) > 1.3*float64(mach400) {
		t.Errorf("Mach too sensitive to buffer config: %d vs %d", machGen, mach400)
	}
	// ...while the baseline collapses under the generic configuration.
	if float64(unixGen) < 1.8*float64(unix400) {
		t.Errorf("baseline should collapse at generic config: %d vs %d", unixGen, unix400)
	}
}

func TestSunCompileShape(t *testing.T) {
	cfg := workload.ForkTestProgram()
	mw := machWorld(t, workload.ArchSun3, workload.WithMemoryMB(16))
	uw := unixWorld(t, workload.ArchSun3, workload.WithMemoryMB(16))
	m, err := workload.MachCompile(mw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	u, err := workload.UnixCompile(uw, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fork test compile SUN 3: mach=%.1fs sunos=%.1fs (paper: 3s / 6s)", float64(m)/1e9, float64(u)/1e9)
	if m >= u {
		t.Errorf("Mach should beat SunOS: %d vs %d", m, u)
	}
}
