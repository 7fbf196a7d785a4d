package netsim

import (
	"fmt"
	"testing"
	"time"

	"sslab/internal/reaction"
)

// batchEnv is one world for the equivalence tests: a network with one
// responding host, one absent endpoint, one blockable server, and a
// middlebox observing the border.
type batchEnv struct {
	sim     *Sim
	net     *Network
	box     *recordingBox
	served  Endpoint
	absent  Endpoint
	blocked Endpoint
	silent  []Flow // nil-payload flows the blocked server's host saw
}

func newBatchEnv(opts ...NetworkOption) *batchEnv {
	e := &batchEnv{
		served:  Endpoint{IP: "10.0.0.1", Port: 8388},
		absent:  Endpoint{IP: "10.0.0.2", Port: 8388},
		blocked: Endpoint{IP: "10.0.0.3", Port: 8388},
	}
	e.sim = NewSim()
	e.net = NewNetwork(e.sim, opts...)
	e.net.AddHost(e.served, HostFunc(func(f *Flow) Outcome {
		return Outcome{Reaction: reaction.Data, ResponseLen: len(f.FirstPayload)}
	}))
	e.net.AddHost(e.blocked, HostFunc(func(f *Flow) Outcome {
		if f.FirstPayload == nil {
			e.silent = append(e.silent, *f)
		}
		return Outcome{Reaction: reaction.Timeout}
	}))
	e.box = &recordingBox{}
	e.net.AddMiddlebox(e.box)
	e.net.BlockPort(e.blocked)
	return e
}

// mixedSpecs builds a spec sequence exercising every path: served,
// no-host RST, blocked, probes, empty payloads.
func mixedSpecs(e *batchEnv) []FlowSpec {
	client := Endpoint{IP: "192.168.1.2", Port: 40000}
	gen := time.Time{}
	return []FlowSpec{
		{Client: client, Server: e.served, FirstPayload: []byte("alpha")},
		{Client: client, Server: e.served, FirstPayload: []byte("beta"), Probe: true, GeneratedAt: Epoch.Add(-time.Hour)},
		{Client: client, Server: e.blocked, FirstPayload: []byte("gamma")},
		{Client: client, Server: e.absent, FirstPayload: []byte("delta"), GeneratedAt: gen},
		{Client: client, Server: e.served, FirstPayload: nil},
		{Client: client, Server: e.served, FirstPayload: []byte("epsilon")},
		{Client: client, Server: e.blocked, FirstPayload: []byte("zeta")},
		{Client: client, Server: e.served, FirstPayload: []byte("eta")},
	}
}

func sameFlows(t *testing.T, label string, a, b []Flow) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: saw %d vs %d flows", label, len(a), len(b))
	}
	for i := range a {
		fa, fb := a[i], b[i]
		if !flowEqual(fa, fb) {
			t.Fatalf("%s: flow %d diverges:\n  Connect %+v\n  batch   %+v", label, i, fa, fb)
		}
	}
}

// TestConnectBatchMatchesConnect pins the wrapper's contract:
// ConnectBatch over a mixed spec sequence — served, probe, blocked,
// absent-host, empty-payload — is observably identical to the same
// Connect calls in order: same outcomes, same flow IDs and counters,
// same middlebox observations, and the same silenced host deliveries
// for blocked servers.
func TestConnectBatchMatchesConnect(t *testing.T) {
	ref := newBatchEnv()
	refSpecs := mixedSpecs(ref)
	var want []Outcome
	for _, sp := range refSpecs {
		want = append(want, ref.net.Connect(sp.Client, sp.Server, sp.FirstPayload, sp.Probe, sp.GeneratedAt))
	}

	e := newBatchEnv()
	got := e.net.ConnectBatch(mixedSpecs(e), nil)

	if len(got) != len(want) {
		t.Fatalf("outcomes: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("outcome %d: batch %+v, Connect %+v", i, got[i], want[i])
		}
	}
	if e.net.Flows != ref.net.Flows || e.net.nextID != ref.net.nextID {
		t.Errorf("counters: batch Flows=%d nextID=%d, Connect Flows=%d nextID=%d",
			e.net.Flows, e.net.nextID, ref.net.Flows, ref.net.nextID)
	}
	sameFlows(t, "middlebox", ref.box.flows, e.box.flows)
	sameFlows(t, "silenced host flows", ref.silent, e.silent)
	if len(e.box.outcomes) != len(ref.box.outcomes) {
		t.Errorf("OnOutcome calls: %d vs %d", len(e.box.outcomes), len(ref.box.outcomes))
	}
}

// TestConnectBatchImpairedEquivalence: over impaired links ConnectBatch
// draws the identical per-link RNG sequence as the same Connect calls
// and produces identical outcomes.
func TestConnectBatchImpairedEquivalence(t *testing.T) {
	profile := LinkProfile{LatencyBase: 30 * time.Millisecond, Jitter: 20 * time.Millisecond, Loss: 0.2}
	mk := func() (*batchEnv, []FlowSpec) {
		e := newBatchEnv(WithDefaultLink(profile))
		var specs []FlowSpec
		client := Endpoint{IP: "192.168.1.2", Port: 40000}
		for i := 0; i < 200; i++ {
			specs = append(specs, FlowSpec{Client: client, Server: e.served,
				FirstPayload: []byte(fmt.Sprintf("payload-%03d", i))})
		}
		return e, specs
	}

	ref, refSpecs := mk()
	var want []Outcome
	for _, sp := range refSpecs {
		want = append(want, ref.net.Connect(sp.Client, sp.Server, sp.FirstPayload, sp.Probe, sp.GeneratedAt))
	}
	e, specs := mk()
	got := e.net.ConnectBatch(specs, nil)
	if len(got) != len(want) {
		t.Fatalf("outcomes: %d vs %d", len(got), len(want))
	}
	dropped := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("outcome %d: batch %+v, Connect %+v", i, got[i], want[i])
		}
		if got[i].Dropped {
			dropped++
		}
	}
	if dropped == 0 {
		t.Error("20% loss never dropped a flow; impaired path untested")
	}
	sameFlows(t, "impaired middlebox", ref.box.flows, e.box.flows)
}

// TestConnectBatchReusesArena: after warm-up, a steady-state batch over
// ideal links performs zero allocations — the network's Flow freelist
// and the caller's outcome buffer are both reused.
func TestConnectBatchReusesArena(t *testing.T) {
	e := newBatchEnv()
	client := Endpoint{IP: "192.168.1.2", Port: 40000}
	payload := []byte("steady-state-payload")
	specs := make([]FlowSpec, 64)
	for i := range specs {
		specs[i] = FlowSpec{Client: client, Server: e.served, FirstPayload: payload}
	}
	// Warm the freelist, the outcome buffer, and the middlebox slices.
	outs := e.net.ConnectBatch(specs, nil)
	for i := 0; i < 8; i++ {
		e.box.reset()
		outs = e.net.ConnectBatch(specs, outs[:0])
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.box.reset()
		outs = e.net.ConnectBatch(specs, outs[:0])
	})
	if allocs != 0 {
		t.Errorf("steady-state ConnectBatch allocates %.1f/op, want 0", allocs)
	}
	if len(outs) != len(specs) {
		t.Fatalf("outcomes %d, want %d", len(outs), len(specs))
	}
}

// TestConnectBatchEmpty: a zero-length batch is a no-op.
func TestConnectBatchEmpty(t *testing.T) {
	e := newBatchEnv()
	if out := e.net.ConnectBatch(nil, nil); len(out) != 0 {
		t.Fatalf("empty batch produced %d outcomes", len(out))
	}
	if e.net.Flows != 0 {
		t.Fatalf("empty batch counted %d flows", e.net.Flows)
	}
}
