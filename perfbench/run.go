package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// minIterations is the fewest workload iterations a measured run makes,
// however long they take, so every reported timing is a median.
const minIterations = 3

// setupReps bounds the extra set-up repetitions after an iteration whose
// set-up is cheap, so setup_s is a median of many samples.
const (
	setupReps     = 6
	setupRepsCost = 0.05 // seconds: set-ups costlier than this are not repeated
)

// iterate runs one iteration, converting panics into errors and
// checking the report digest against its pin.
func iterate(w workload, in int64, o runOpts) (it *iteration, err error) {
	defer func() {
		if p := recover(); p != nil {
			it, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	runtime.GC()
	if it, err = w.run(in, o); err != nil {
		return nil, err
	}
	if want := pinFor(w.name, in); it.digest != want {
		return nil, fmt.Errorf("report digest %s, pinned %s", it.digest, want)
	}
	return it, nil
}

// extraSetups repeats a cheap set-up and returns its durations.
func extraSetups(w workload, in int64, first float64) ([]float64, error) {
	var out []float64
	if first > setupRepsCost {
		return out, nil
	}
	for i := 0; i < setupReps; i++ {
		d, err := w.setup(in)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// runPlain is the measured run: iterations of the workload until the
// budget is spent (at least minIterations), reporting medians of the
// end-to-end metrics. Iteration n runs input seed inputSeed(seed+n), so
// a run's medians cover several inputs rather than one seed's draw.
func runPlain(w workload, seed int64, budget time.Duration) result {
	var c checker
	samples := map[string][]float64{}
	add := func(name string, v ...float64) { samples[name] = append(samples[name], v...) }
	start := time.Now()
	for n := 0; ; n++ {
		iterStart := time.Now()
		in := inputSeed(seed + int64(n))
		it, err := iterate(w, in, runOpts{})
		var more []float64
		if err == nil {
			more, err = extraSetups(w, in, it.setup)
		}
		if c.attempt(fmt.Sprintf("%s input seed %d iteration %d", w.name, in, n), err) {
			fmt.Fprintf(os.Stderr, "perfbench: %s iteration %d: wall %.3fs setup %.4fs sim %.3fs flows %d heap %.1fMB\n",
				w.name, n, it.wall, it.setup, it.sim, it.flows, it.heapMB)
			add("wall_s", it.wall)
			add("setup_s", it.setup)
			add("setup_s", more...)
			add("flows_per_s", ratio(float64(it.flows), it.sim))
			add("heap_live_mb", it.heapMB)
		}
		last := time.Since(iterStart)
		if n+1 >= minIterations && time.Since(start)+last > budget {
			break
		}
	}
	return c.result(plainMetrics(samples))
}

// plainMetrics reports the median of each end-to-end metric's samples.
func plainMetrics(samples map[string][]float64) map[string]metric {
	m := map[string]metric{}
	for _, d := range endToEnd {
		m[d.name] = metric{median(samples[d.name]), d.unit}
	}
	return m
}

// runTraced is the separate traced run. It makes one untraced iteration
// as the overhead reference, one traced iteration (fleet metrics
// registry, one-virtual-hour RunTo slices, CPU profile), on fleet-pop
// one more at a single worker, and then the layer call timings. Every
// iteration's report must match the pin, so traced and untraced report
// bytes are identical.
func runTraced(w workload, seed int64) result {
	in := inputSeed(seed)
	var c checker
	m := map[string]metric{}
	for _, d := range perLayer {
		m[d.name] = metric{0, d.unit}
	}
	set := func(name string, v float64) {
		d, ok := m[name]
		if !ok {
			c.attempt("traced metric "+name, fmt.Errorf("not declared in perLayer"))
			return
		}
		m[name] = metric{v, d.Unit}
	}

	plain, err := iterate(w, in, runOpts{})
	c.attempt(w.name+" untraced iteration", err)

	tr := newTracer()
	profDir := filepath.Join(".bench_build", "profiles")
	var traced *iteration
	var split cpuSplit
	if c.attempt("profile directory", os.MkdirAll(profDir, 0o755)) {
		profPath := filepath.Join(profDir, fmt.Sprintf("cpu-%d.pprof", os.Getpid()))
		var before, after runtime.MemStats
		err := func() error {
			f, err := os.Create(profPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := pprof.StartCPUProfile(f); err != nil {
				return err
			}
			traced, err = iterate(w, in, runOpts{tr: tr})
			pprof.StopCPUProfile()
			runtime.ReadMemStats(&after)
			return err
		}()
		if c.attempt(w.name+" traced iteration", err) {
			set("gc.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
			set("gc.cycles", float64(after.NumGC-before.NumGC))
			split, err = attributeProfile(profPath)
			c.attempt("CPU profile attribution", err)
		}
		os.Remove(profPath)
	}

	if w.name == "fleet-pop" && plain != nil {
		one, err := iterate(w, in, runOpts{workers: 1})
		if c.attempt("fleet-pop at one worker", err) {
			set("fleet.pool_speedup", ratio(one.sim, plain.sim))
		}
	}

	lt, err := layerTimings(in)
	c.attempt("layer call timings", err)
	for k, v := range lt {
		set(k, v)
	}
	if w.name == "paper-repro" {
		ss, _ := paperConfigs(in)
		reg, err := paperLab(ss, 2)
		if c.attempt("paper lab", err) {
			cnt := registryValues(reg)
			tr.count("netsim.events_per_flow", ratio(cnt["sim.events_dispatched"], cnt["gfw.triggers"]))
			tr.count("netsim.heap_peak", cnt["sim.event_heap_peak"])
		}
	}

	if traced != nil {
		for k, v := range tr.spans {
			set(k, v)
		}
		for _, d := range perLayer {
			if v, ok := tr.counts[d.name]; ok {
				set(d.name, v)
			}
		}
		if len(tr.slices) > 0 {
			set("fleet.slice_p50_s", median(tr.slices))
			sort.Float64s(tr.slices)
			set("fleet.slice_max_s", tr.slices[len(tr.slices)-1])
		}
		if plain != nil {
			set("trace.overhead_frac", ratio(traced.wall, plain.wall)-1)
		}
		set("attributed_frac", attributed(w.name, tr, lt, traced))
		for pkg, share := range split.shares {
			set("cpu."+pkg, share)
		}
		set("cpu.samples", float64(split.samples))
	}
	return c.result(m)
}

// layerTimings runs every layer call timing on inputs from seed.
func layerTimings(seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	flights, err := mixFlights(seed, 20000)
	if err != nil {
		return nil, err
	}
	if out["trafficgen.ns_per_packet"], err = trafficgenNs(seed); err != nil {
		return nil, err
	}
	out["detector.ns_per_flow"] = detectorNs(flights)
	out["netsim.scalar_ns_per_flow"] = ingestNs(seed, flights, false)
	out["netsim.batch_ns_per_flow"] = ingestNs(seed, flights, true)
	out["netsim.wheel_ns_per_timer"] = schedulerNs(seed, true)
	out["netsim.heap_ns_per_event"] = schedulerNs(seed, false)
	out["entropy.ns_per_payload"] = entropyNs(seed)
	out["replay.ns_per_check"] = replayNs(seed)
	out["replay.filter_kb"] = replayFilterKB()
	if out["reaction.ns_per_probe_stream"], err = reactionNs(seed, "aes-256-ctr"); err != nil {
		return nil, err
	}
	if out["reaction.ns_per_probe_aead"], err = reactionNs(seed, "aes-256-gcm"); err != nil {
		return nil, err
	}
	return out, nil
}

// attributed is Σ(layer ns per call × exact call count) over the traced
// iteration's simulation time: how much of the run the layer call
// timings explain. Probe reactions are charged at the mean of the
// stream and AEAD timings.
func attributed(name string, tr *tracer, lt map[string]float64, it *iteration) float64 {
	react := (lt["reaction.ns_per_probe_stream"] + lt["reaction.ns_per_probe_aead"]) / 2
	flows, probes := tr.counts["flows"], tr.counts["probes"]
	var ns, sim float64
	switch name {
	case "fleet-pop", "region-resume":
		// Per client flow: first packet, batch ingestion through the
		// censor, the host's replay check; per wake-up: one wheel timer.
		// fleet-pop's RunTo time is on two workers: its CPU time is
		// charged at the pool size.
		ns = flows*(lt["trafficgen.ns_per_packet"]+lt["netsim.batch_ns_per_flow"]+lt["replay.ns_per_check"]) +
			tr.counts["timers"]*lt["netsim.wheel_ns_per_timer"] + probes*react
		sim = it.sim
		if name == "fleet-pop" {
			sim *= float64(defaultWorkers())
		}
	case "paper-repro":
		// Per client flow: scalar ingestion and its heap events; the
		// shadowsocks flows' first packets; Exps 2–3's payloads.
		ns = flows*(lt["netsim.scalar_ns_per_flow"]+tr.counts["netsim.events_per_flow"]*lt["netsim.heap_ns_per_event"]) +
			tr.counts["ss_flows"]*lt["trafficgen.ns_per_packet"] +
			tr.counts["entropy_payloads"]*lt["entropy.ns_per_payload"] + probes*react
		sim = it.sim
	case "probe-react":
		// The matrices' probe flows against the matrices' time.
		ns = probes * react
		sim = tr.spans["experiment.matrix_s"]
	}
	return ratio(ns/1e9, sim)
}

// printPins prints the report digests of the first n input seeds, each
// from an uninterrupted run.
func printPins(w workload, n int) error {
	for s := int64(1); s <= int64(n); s++ {
		it, err := w.run(s, runOpts{straight: true})
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		fmt.Printf("\t\t%q, // seed %d\n", it.digest, s)
	}
	return nil
}
