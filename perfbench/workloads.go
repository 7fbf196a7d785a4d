package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"sslab/internal/experiment"
	"sslab/internal/fleet"
	"sslab/internal/gfw"
	"sslab/internal/metrics"
	"sslab/internal/probesim"
	"sslab/internal/region"
)

// workload is one benchmark input set. run executes one iteration on an
// input seed; setup times the workload's set-up alone.
type workload struct {
	name  string
	why   string
	run   func(seed int64, o runOpts) (*iteration, error)
	setup func(seed int64) (float64, error)
}

// runOpts varies how an iteration executes without changing its inputs:
// every combination must produce the same report bytes.
type runOpts struct {
	tr       *tracer
	workers  int  // fleet worker pool size (0: the workload's default)
	straight bool // region-resume: run to the end without the snapshot round trip
}

// iteration is what one run of a workload measured.
type iteration struct {
	setup  float64 // seconds in set-up
	sim    float64 // seconds simulating (Engine.RunTo, experiment entry points)
	wall   float64 // seconds for the whole iteration
	flows  int64   // flows answered: client flows, or probe flows on probe-react
	heapMB float64 // live heap after a GC at the end of simulation, 10⁶ bytes
	digest string  // sha256 over the reports' JSON
}

var workloads = []workload{
	{
		name:  "fleet-pop",
		why:   "the default 100k-user population for 2 h on two space shards and two workers: batch ingestion, timing wheel, trafficgen and Bloom-filter hosts, far larger than the cache",
		run:   runFleetPop,
		setup: func(seed int64) (float64, error) { return fleetSetup(fleetPopConfig(seed), defaultWorkers()) },
	},
	{
		name:  "region-resume",
		why:   "a 4-region crackdown over 4k users and 24 h on one worker, snapshotted and restored at h/2: probing, blocking, replacement, schedules and engine state I/O",
		run:   runRegionResume,
		setup: func(seed int64) (float64, error) { return fleetSetup(regionResumeConfig(seed), 1) },
	},
	{
		name:  "paper-repro",
		why:   "the fast-scale shadowsocks and sink experiments at a quarter of their duration, back to back: heap scheduler, scalar Connect/OnFlow ingestion and entropy payload synthesis",
		run:   runPaperRepro,
		setup: func(seed int64) (float64, error) { return paperSetup(paperConfigs(seed)) },
	},
	{
		name:  "probe-react",
		why:   "reaction matrices and SPRT probe cost: simulated servers decrypt probes with the real ciphers (sscrypto, reaction, probesim)",
		run:   runProbeReact,
		setup: func(int64) (float64, error) { return probeSetup() },
	},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// defaultWorkers is the fleet-pop pool size: two workers, or fewer on a
// smaller host.
func defaultWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// measureHeap records the live heap and returns the time it took, which
// the iteration's wall time excludes.
func (it *iteration) measureHeap() float64 {
	start := time.Now()
	it.heapMB = heapLiveMB()
	return since(start)
}

// heapLiveMB collects garbage and returns the live heap in 10⁶ bytes.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// digest hashes the JSON encodings of reports, in order.
func digest(reports ...any) (string, error) {
	h := sha256.New()
	for _, r := range reports {
		b, err := json.Marshal(r)
		if err != nil {
			return "", fmt.Errorf("encoding report: %w", err)
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// fleetPopConfig is the default population (100k users, default mix) for
// two virtual hours on two space shards.
func fleetPopConfig(seed int64) fleet.Config {
	return fleet.Config{Seed: seed, Hours: 2, Shards: 2}
}

// regionResumeConfig is a 4-region sensitivity gradient under a
// crackdown schedule (sensitivity 1 from h/3 to 2h/3).
func regionResumeConfig(seed int64) fleet.Config {
	const hours = 24
	topo := &region.Topology{}
	for i, s := range []float64{0.05, 0.35, 0.65, 0.95} {
		g := gfw.Config{PoolSize: 2000, ReplayBase: 0.3, Sensitivity: s}
		topo.Regions = append(topo.Regions, region.Region{
			Name:   fmt.Sprintf("r%d-s%.2f", i, s),
			Weight: 1,
			GFW:    &g,
			Schedule: region.Schedule{
				{AtHours: hours / 3.0, Kind: region.KindSensitivity, Value: 1},
				{AtHours: 2 * hours / 3.0, Kind: region.KindSensitivity, Value: s},
			},
		})
	}
	return fleet.Config{
		Seed:    seed,
		Users:   4000,
		Hours:   hours,
		Shards:  2,
		GFW:     gfw.Config{PoolSize: 2000, ReplayBase: 0.3},
		Regions: topo,
	}
}

// fleetOptions returns the execution options of one fleet run.
func fleetOptions(workers int, tr *tracer) []fleet.Option {
	opts := []fleet.Option{fleet.WithWorkers(workers)}
	if tr != nil {
		opts = append(opts, fleet.WithMetrics(tr.reg))
	}
	return opts
}

// runTo advances e to t: in one call, or — traced — in one-virtual-hour
// slices whose durations the tracer keeps. Staged runs are
// report-identical to single calls.
func runTo(e *fleet.Engine, t time.Time, tr *tracer) error {
	if tr == nil {
		return e.RunTo(t)
	}
	for now := e.Now(); now.Before(t); {
		next := now.Add(time.Hour)
		if next.After(t) {
			next = t
		}
		start := time.Now()
		if err := e.RunTo(next); err != nil {
			return err
		}
		tr.slices = append(tr.slices, since(start))
		now = next
	}
	return nil
}

// finishFleet reduces a finished engine: report, invariants, digest.
func finishFleet(e *fleet.Engine, it *iteration, tr *tracer) error {
	start := time.Now()
	rep, err := e.Report()
	if err != nil {
		return err
	}
	tr.span("fleet.report_s", since(start))
	var sum int64
	for _, c := range rep.FlowsPerBucket.Counts {
		sum += c
	}
	if sum != rep.Flows {
		return fmt.Errorf("invariant: Flows %d != Σ FlowsPerBucket %d", rep.Flows, sum)
	}
	if it.digest, err = digest(rep); err != nil {
		return err
	}
	it.flows = rep.Flows
	tr.work(rep)
	return nil
}

func runFleetPop(seed int64, o runOpts) (*iteration, error) {
	cfg := fleetPopConfig(seed)
	workers := o.workers
	if workers == 0 {
		workers = defaultWorkers()
	}
	it := &iteration{}
	t0 := time.Now()
	e, err := fleet.NewEngine(cfg, fleetOptions(workers, o.tr)...)
	if err != nil {
		return nil, err
	}
	it.setup = since(t0)
	t1 := time.Now()
	if err := runTo(e, e.End(), o.tr); err != nil {
		return nil, err
	}
	it.sim = since(t1)
	paused := it.measureHeap()
	if err := finishFleet(e, it, o.tr); err != nil {
		return nil, err
	}
	it.wall = since(t0) - paused
	o.tr.userHours(cfg.Users, cfg.Hours, it.sim)
	return it, nil
}

func runRegionResume(seed int64, o runOpts) (*iteration, error) {
	cfg := regionResumeConfig(seed)
	opts := fleetOptions(1, o.tr)
	it := &iteration{}
	t0 := time.Now()
	e, err := fleet.NewEngine(cfg, opts...)
	if err != nil {
		return nil, err
	}
	it.setup = since(t0)
	if !o.straight {
		t1 := time.Now()
		if err := runTo(e, e.Now().Add(time.Duration(cfg.Hours)*time.Hour/2), o.tr); err != nil {
			return nil, err
		}
		it.sim += since(t1)
		t2 := time.Now()
		snap, err := e.Snapshot()
		if err != nil {
			return nil, err
		}
		o.tr.span("fleet.snapshot_s", since(t2))
		o.tr.span("fleet.snapshot_mb", float64(len(snap))/1e6)
		// The restored engine absorbs all of the run's unit metrics at
		// Report; the first half's registry must not count twice.
		if o.tr != nil {
			o.tr.reg = metrics.New()
			opts = fleetOptions(1, o.tr)
		}
		t3 := time.Now()
		if e, err = fleet.Restore(snap, opts...); err != nil {
			return nil, err
		}
		o.tr.span("fleet.restore_s", since(t3))
	}
	t4 := time.Now()
	if err := runTo(e, e.End(), o.tr); err != nil {
		return nil, err
	}
	it.sim += since(t4)
	paused := it.measureHeap()
	if err := finishFleet(e, it, o.tr); err != nil {
		return nil, err
	}
	it.wall = since(t0) - paused
	o.tr.userHours(cfg.Users, cfg.Hours, it.sim)
	return it, nil
}

// paperConfigs returns the registry's fast-scale shadowsocks and sink
// configs at a quarter of their virtual durations (5 days, 20 hours), so
// a run holds about ten iterations.
func paperConfigs(seed int64) (experiment.ShadowsocksConfig, experiment.SinkConfig) {
	ss, _ := experiment.Lookup("shadowsocks")
	sk, _ := experiment.Lookup("sink")
	ssCfg := *ss.Config(seed, false).(*experiment.ShadowsocksConfig)
	sinkCfg := *sk.Config(seed, false).(*experiment.SinkConfig)
	ssCfg.Days /= 4
	sinkCfg.Hours /= 4
	return ssCfg, sinkCfg
}

func runPaperRepro(seed int64, o runOpts) (*iteration, error) {
	ssCfg, sinkCfg := paperConfigs(seed)
	it := &iteration{}
	t0 := time.Now()
	setup, err := paperSetup(ssCfg, sinkCfg)
	if err != nil {
		return nil, err
	}
	it.setup = setup

	t1 := time.Now()
	ssRep, err := experiment.ShadowsocksExperiment(ssCfg)
	if err != nil {
		return nil, err
	}
	o.tr.span("experiment.shadowsocks_s", since(t1))
	t2 := time.Now()
	sinkRep, err := experiment.SinkExperiments(sinkCfg)
	if err != nil {
		return nil, err
	}
	o.tr.span("experiment.sink_s", since(t2))
	it.sim = since(t1)
	paused := it.measureHeap()

	if ssRep.ControlProbes != 0 {
		return nil, fmt.Errorf("invariant: shadowsocks ControlProbes = %d, want 0", ssRep.ControlProbes)
	}
	if it.digest, err = digest(ssRep, sinkRep); err != nil {
		return nil, err
	}
	it.wall = since(t0) - paused
	it.flows = int64(ssRep.Triggers)
	probes := ssRep.Probes
	for _, row := range sinkRep.Rows {
		it.flows += int64(row.Triggers)
		probes += row.Probes
	}
	o.tr.paperWork(it.flows, int64(probes), ssRep, sinkRep)
	return it, nil
}

// probeReactConfigs raises the registry's fast-scale trial counts
// (60 and 50) to about a second of work.
func probeReactConfigs(seed int64) (experiment.MatrixConfig, experiment.ProbeCostConfig) {
	return experiment.MatrixConfig{Seed: seed, Trials: 150},
		experiment.ProbeCostConfig{Seed: seed, Trials: 75}
}

func runProbeReact(seed int64, o runOpts) (*iteration, error) {
	mCfg, pcCfg := probeReactConfigs(seed)
	it := &iteration{}
	t0 := time.Now()
	setup, err := probeSetup()
	if err != nil {
		return nil, err
	}
	it.setup = setup

	t1 := time.Now()
	mRep, err := experiment.ReactionMatrices(mCfg)
	if err != nil {
		return nil, err
	}
	o.tr.span("experiment.matrix_s", since(t1))
	t2 := time.Now()
	pcRep, err := experiment.ProbeCost(pcCfg)
	if err != nil {
		return nil, err
	}
	o.tr.span("experiment.probecost_s", since(t2))
	it.sim = since(t1)
	paused := it.measureHeap()

	if it.digest, err = digest(mRep, pcRep); err != nil {
		return nil, err
	}
	it.wall = since(t0) - paused
	it.flows = matrixProbes(mRep)
	o.tr.probeWork(it.flows)
	return it, nil
}

// matrixProbes counts the probe flows the reaction matrices answered:
// every random-probe cell entry, and per Table 5 trial the genuine
// flight, its identical replay and its byte-changed replay.
func matrixProbes(r *experiment.MatrixReport) int64 {
	var n int64
	for _, ms := range [][]*probesim.Matrix{r.Stream, r.AEAD} {
		for _, m := range ms {
			for _, cell := range m.Cells {
				for _, c := range cell {
					n += int64(c)
				}
			}
		}
	}
	for _, rr := range r.Replay {
		for _, c := range rr.Identical {
			n += 2 * int64(c) // the genuine flight and its replay
		}
		for _, c := range rr.ByteChanged {
			n += int64(c)
		}
	}
	return n
}

// fleetSetup times fleet.NewEngine alone.
func fleetSetup(cfg fleet.Config, workers int) (float64, error) {
	start := time.Now()
	_, err := fleet.NewEngine(cfg, fleet.WithWorkers(workers))
	return since(start), err
}
