// Command perfbench is the repository's end-to-end benchmark: it runs one
// of four simulation workloads for a fixed wall-clock budget, checks every
// report it produces against a pinned digest and a set of invariants, and
// prints the run's metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload fleet-pop --seed 3 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end set (endToEnd in metrics.go);
// with --trace 1 the run is a separate traced run that reports the
// per-layer set: a CPU split by internal package, exact work counts from
// the program's metrics registry, layer call timings, and span timings
// of the public calls the workload makes. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	seed := flag.Int64("seed", 1, "workload seed; inputs are a function of it alone")
	seconds := flag.Float64("seconds", 25, "measurement budget in wall-clock seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	pins := flag.Int("print-pins", 0, "print the report digests of the first N pinned seeds of -workload and exit")
	flag.Parse()

	w, ok := lookupWorkload(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *workload, workloadNames())
		os.Exit(2)
	}
	if *pins > 0 {
		if err := printPins(w, *pins); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res = runTraced(w, *seed)
	} else {
		res = runPlain(w, *seed, budget)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// checker counts attempted and failed operations; every failure is also
// printed to standard error with its reason.
type checker struct {
	attempted, failed int
}

func (c *checker) attempt(what string, err error) bool {
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
		return false
	}
	return true
}

func (c *checker) result(m map[string]metric) result {
	if c.attempted == 0 {
		c.attempted, c.failed = 1, 1
	}
	return result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: m}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
