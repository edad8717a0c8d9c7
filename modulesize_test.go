package machvm_test

// TestPmapModuleSize holds the §4/§9 claim: "the size of the machine
// dependent mapping module is approximately 6K bytes on a VAX — about the
// size of a device driver", against thousands of lines of shared
// machine-independent code. A module directory holds only what its hardware
// does differently (the forward page table the VAX, SUN 3 and NS32082 share
// is internal/pmap/table.go), and the test fails when one outgrows the
// line budget: code that two machines need belongs in the shared package.

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func sourceLines(t *testing.T, dir string) (lines int, bytes int) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		bytes += len(data)
		lines += strings.Count(string(data), "\n")
	}
	return lines, bytes
}

// maxModuleLines is the non-test line budget of one machine's directory.
const maxModuleLines = 350

func TestPmapModuleSize(t *testing.T) {
	machines := []string{"vax", "rtpc", "sun3", "ns32082", "tlbonly"}
	miDirs := []string{"internal/core", "internal/ipc", "internal/task", "internal/pager"}

	miLines := 0
	for _, d := range miDirs {
		l, _ := sourceLines(t, d)
		miLines += l
	}
	t.Logf("machine-independent layer: %d lines", miLines)
	lines, bytes := sourceLines(t, "internal/pmap")
	t.Logf("shared pmap package      : %4d lines, %5d bytes", lines, bytes)
	for _, m := range machines {
		lines, bytes := sourceLines(t, filepath.Join("internal/pmap", m))
		t.Logf("pmap module %-8s: %4d lines, %5d bytes", m, lines, bytes)
		if lines == 0 {
			t.Fatalf("module %s has no sources?", m)
		}
		if lines > maxModuleLines {
			t.Errorf("module %s is %d lines, over the %d-line budget; the paper's split requires pmaps to stay small", m, lines, maxModuleLines)
		}
	}
}

// maxNonTestLines is the budget for all non-test Go outside bench/: the
// count when it last moved, rounded up to the next 50. ROADMAP
// north-star 2 says the trend is down; a PR that deletes code lowers the
// constant, and one that must raise it says what the new lines buy.
const maxNonTestLines = 18550

func TestNonTestLineBudget(t *testing.T) {
	total := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path == "bench" || strings.HasPrefix(d.Name(), ".") && path != "." {
			return fs.SkipDir
		}
		lines, _ := sourceLines(t, path)
		total += lines
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("non-test Go outside bench/: %d lines (budget %d)", total, maxNonTestLines)
	if total > maxNonTestLines {
		t.Errorf("non-test Go outside bench/ is %d lines, over the %d-line budget", total, maxNonTestLines)
	}
}
