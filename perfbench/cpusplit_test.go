package main

import (
	"math"
	"os"
	"testing"
)

// TestParseRaw attributes a canned `go tool pprof -raw` listing: the
// innermost sslab/internal frame wins over runtime leaves and internal
// callers, inlined frames count innermost first, samples with no
// internal frame go to runtime, and unlisted internal packages to other.
func TestParseRaw(t *testing.T) {
	f, err := os.Open("testdata/raw.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	split, err := parseRaw(f)
	if err != nil {
		t.Fatal(err)
	}
	if split.samples != 28 {
		t.Fatalf("samples = %d, want 28", split.samples)
	}
	want := map[string]int64{
		"netsim":   5, // runtime.memmove leaf under Network.Connect
		"sscrypto": 3, // innermost of sscrypto under reaction
		"bloom":    7, // inlined bloom frames precede replay and fleet
		"runtime":  8, // GC worker (2) and main-only stack (6)
		"gfw":      4, // runtime.memhash inlined into a gfw function
		"other":    1, // internal/analysis is not a listed package
	}
	for pkg, n := range want {
		if got, w := split.shares[pkg], float64(n)/28; math.Abs(got-w) > 1e-12 {
			t.Errorf("share[%s] = %v, want %v", pkg, got, w)
		}
	}
	if len(split.shares) != len(want) {
		t.Errorf("shares = %v, want exactly %v", split.shares, want)
	}
}

func TestInternalPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"sslab/internal/fleet.(*Fleet).wake":     "fleet",
		"sslab/internal/analysis/maporder.run":   "analysis",
		"sslab/internal/stats.(*Quantile).Merge": "stats",
		"sslab/internalx.F":                      "",
		"main.main":                              "",
		"runtime.mallocgc":                       "",
	} {
		got, ok := internalPackage(fn)
		if got != want || ok != (want != "") {
			t.Errorf("internalPackage(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}
