package main

import (
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"repro"
)

// TestCPUSharesChargesGraphBuilding profiles a loop that only builds
// graphs and checks the decoder charges graph more than any other package.
func TestCPUSharesChargesGraphBuilding(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := repro.NewGraph("gnp", 1<<14, 1); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	shares, samples, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, pkg := range cpuPackages {
		total += shares[pkg]
		if pkg != "graph" && shares[pkg] >= shares["graph"] {
			t.Errorf("%s share %v is not below graph's %v", pkg, shares[pkg], shares["graph"])
		}
	}
	if samples < 10 || total > 1 {
		t.Fatalf("%d samples, shares %v: want at least 10 samples and a total of at most 1", samples, shares)
	}
}
