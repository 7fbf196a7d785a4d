package main

import (
	"sslab/internal/experiment"
	"sslab/internal/fleet"
	"sslab/internal/metrics"
)

// tracer collects one traced iteration's spans and work counts. Every
// method is a no-op on a nil tracer, so untraced iterations call them
// unconditionally.
type tracer struct {
	// reg receives the fleet's unit metrics through fleet.WithMetrics.
	reg *metrics.Registry
	// spans are named timings and sizes of the public calls made.
	spans map[string]float64
	// slices are the durations of one-virtual-hour Engine.RunTo calls.
	slices []float64
	// counts are exact work counts: totals for attribution, and the
	// per-layer count metrics.
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{reg: metrics.New(), spans: map[string]float64{}, counts: map[string]float64{}}
}

func (t *tracer) span(name string, v float64) {
	if t != nil {
		t.spans[name] += v
	}
}

func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] = v
	}
}

func (t *tracer) userHours(users, hours int, sim float64) {
	t.span("fleet.user_hours_per_s", ratio(float64(users*hours), sim))
}

// work records a fleet report's counts and the registry's exact
// scheduler counts. Registry ratios use the registry's own fleet.flows
// as denominator: a restored engine's registry covers only the resumed
// part of the run.
func (t *tracer) work(rep *fleet.Report) {
	if t == nil {
		return
	}
	flows := float64(rep.Flows)
	t.count("flows", flows)
	t.count("probes", float64(rep.ProbesSent))
	t.count("timers", float64(rep.Wakeups))
	t.count("gfw.probes_per_flow", ratio(float64(rep.ProbesSent), flows))
	t.count("gfw.recorded_per_flow", ratio(float64(rep.PayloadsRecorded), flows))
	t.count("gfw.blocks", float64(rep.Blocks))
	t.count("fleet.replacements", float64(rep.Replacements))
	t.count("fleet.wakeups_per_flow", ratio(float64(rep.Wakeups), flows))

	c := registryValues(t.reg)
	regFlows := c["fleet.flows"]
	t.count("netsim.events_per_flow", ratio(c["sim.events_dispatched"], regFlows))
	t.count("netsim.heap_peak", c["sim.event_heap_peak"])
	t.count("netsim.wheel_cascades_per_timer", ratio(c["wheel.cascaded"], c["wheel.scheduled"]))
	t.count("netsim.wheel_anchors", c["wheel.anchors"])
}

// paperWork records the paper experiments' counts.
func (t *tracer) paperWork(flows, probes int64, ss *experiment.ShadowsocksReport, sink *experiment.SinkReport) {
	if t == nil {
		return
	}
	t.count("flows", float64(flows))
	t.count("probes", float64(probes))
	t.count("ss_flows", float64(ss.Triggers))
	var payloads int64
	for _, row := range sink.Rows {
		if row.Name == "2" || row.Name == "3" {
			payloads += int64(row.Triggers) // Exps 2 and 3 synthesize entropy-targeted payloads
		}
	}
	t.count("entropy_payloads", float64(payloads))
	t.count("gfw.probes_per_flow", ratio(float64(probes), float64(flows)))
}

// probeWork records the probe experiments' counts.
func (t *tracer) probeWork(probes int64) {
	t.count("probes", float64(probes))
}

// registryValues flattens a registry's counters and gauges by name.
func registryValues(reg *metrics.Registry) map[string]float64 {
	s := reg.Snapshot()
	out := map[string]float64{}
	for _, v := range s.Counters {
		out[v.Name] = float64(v.Value)
	}
	for _, v := range s.Gauges {
		out[v.Name] = float64(v.Value)
	}
	return out
}
