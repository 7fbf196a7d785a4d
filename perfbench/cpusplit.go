package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// cpuSplit is a CPU profile's samples attributed to internal packages.
type cpuSplit struct {
	samples int64
	shares  map[string]float64 // package → share of samples
}

const internalPrefix = "sslab/internal/"

// attributeProfile converts a CPU profile to text with `go tool pprof
// -raw` and attributes its samples (see parseRaw).
func attributeProfile(path string) (cpuSplit, error) {
	cmd := exec.Command("go", "tool", "pprof", "-raw", path)
	out, err := cmd.Output()
	if err != nil {
		return cpuSplit{}, fmt.Errorf("go tool pprof -raw: %w", err)
	}
	return parseRaw(strings.NewReader(string(out)))
}

// parseRaw attributes each sample of a `go tool pprof -raw` listing to
// the innermost frame of its stack that lies in an sslab/internal
// package: the package named by the path element after that prefix.
// Frames are searched leaf first, and within a location innermost
// inlined function first (pprof lists a location's inlined frames
// before the function they were inlined into). Samples with no such
// frame go to "runtime"; internal packages not in cpuPackages go to
// "other".
func parseRaw(r io.Reader) (cpuSplit, error) {
	type sample struct {
		count int64
		locs  []int
	}
	var samples []sample
	frames := map[int][]string{} // location id → function names, innermost first
	section, lastLoc := "", -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSuffix(strings.TrimSpace(line), ":")
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch section {
		case "Samples":
			// "  count  value: loc loc ...", leaf location first.
			if len(fields) < 2 || !strings.HasSuffix(fields[1], ":") {
				continue // the column header, or a label line
			}
			n, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				continue
			}
			s := sample{count: n}
			for _, f := range fields[2:] {
				id, err := strconv.Atoi(f)
				if err != nil {
					return cpuSplit{}, fmt.Errorf("pprof -raw: bad location %q in %q", f, line)
				}
				s.locs = append(s.locs, id)
			}
			samples = append(samples, s)
		case "Locations":
			// "  id: 0xaddr M=1 func file:line s=N", then one indented
			// "func file:line s=N" line per caller it was inlined into.
			if id, ok := strings.CutSuffix(fields[0], ":"); ok && strings.HasPrefix(fieldAt(fields, 1), "0x") {
				n, err := strconv.Atoi(id)
				if err != nil {
					return cpuSplit{}, fmt.Errorf("pprof -raw: bad location line %q", line)
				}
				lastLoc = n
				rest := fields[2:]
				if len(rest) > 0 && strings.HasPrefix(rest[0], "M=") {
					rest = rest[1:]
				}
				if len(rest) > 0 {
					frames[n] = append(frames[n], rest[0])
				}
			} else if lastLoc >= 0 {
				frames[lastLoc] = append(frames[lastLoc], fields[0])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return cpuSplit{}, err
	}

	known := map[string]bool{}
	for _, p := range cpuPackages {
		known[p] = true
	}
	split := cpuSplit{shares: map[string]float64{}}
	counts := map[string]int64{}
	for _, s := range samples {
		pkg := "runtime"
	search:
		for _, id := range s.locs {
			for _, fn := range frames[id] {
				if p, ok := internalPackage(fn); ok {
					pkg = p
					if !known[pkg] {
						pkg = "other"
					}
					break search
				}
			}
		}
		counts[pkg] += s.count
		split.samples += s.count
	}
	for pkg, n := range counts {
		split.shares[pkg] = float64(n) / float64(split.samples)
	}
	return split, nil
}

// internalPackage returns the sslab/internal package a function name
// belongs to: "sslab/internal/fleet.(*Fleet).wake" → "fleet".
func internalPackage(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}

func fieldAt(fields []string, i int) string {
	if i < len(fields) {
		return fields[i]
	}
	return ""
}
