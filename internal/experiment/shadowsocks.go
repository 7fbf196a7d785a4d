package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"sslab/internal/capture"
	"sslab/internal/gfw"
	"sslab/internal/netsim"
	"sslab/internal/probe"
	"sslab/internal/reaction"
	"sslab/internal/seedfork"
	"sslab/internal/sscrypto"
	"sslab/internal/stats"
	"sslab/internal/trafficgen"
)

// ShadowsocksConfig scales the §3.1 experiment.
type ShadowsocksConfig struct {
	Seed int64
	// Days of virtual experiment time (paper: ~115; default 115).
	Days int
	// ConnsPerPairPerHour is the fetch rate of each client/server pair
	// (default 120 — a fetch every 30 s, as the paper's curl loops did).
	ConnsPerPairPerHour int
	// GFW overrides parts of the censor configuration (Seed is forced to
	// the experiment seed).
	GFW gfw.Config
	// Impair, when set, applies a link-impairment profile to every
	// simulated link (loss, jitter, outages — see netsim.LinkProfile).
	// nil keeps the idealized lossless network.
	Impair *netsim.LinkProfile `json:"Impair,omitempty"`
}

func (c ShadowsocksConfig) withDefaults() ShadowsocksConfig {
	if c.Days == 0 {
		c.Days = 115
	}
	if c.ConnsPerPairPerHour == 0 {
		c.ConnsPerPairPerHour = 120
	}
	return c
}

// PairResult summarizes one client/server pair.
type PairResult struct {
	Name       string
	Profile    reaction.Profile
	Method     string
	Probes     int
	TypeCounts map[probe.Type]int
	Stage      int
}

// ShadowsocksReport aggregates everything the §3.1 experiment yields.
type ShadowsocksReport struct {
	Config   ShadowsocksConfig
	Triggers int
	Probes   int
	Pairs    []PairResult

	// ControlProbes must stay zero: the never-used control host receiving
	// no probes is what rules out proactive scanning (§4).
	ControlProbes int

	// Figure 2.
	NR1Lengths *stats.Histogram
	NR1Total   int
	NR2Count   int

	// Figure 3 / Table 2.
	UniqueIPs        int
	MultiUseFraction float64
	MaxPerIP         int
	TopIPs           []capture.IPCount

	// Table 3.
	ASCounts map[int]int

	// Figure 5.
	EphemeralPortShare float64
	MinPort, MaxPort   int

	// Figure 6.
	TSClusters    int
	DominantRate  float64
	Cluster1000Hz int

	// Figure 7 (seconds).
	DelayFirst, DelayAll *stats.CDF

	// Figure 4.
	Overlap capture.Overlap

	// Probe-delivery accounting under link impairment (the prober's
	// retry-with-timeout path): probes whose connects died on lossy
	// links, the retries that followed, and probes reclassified as
	// timeouts because the impaired round trip outlasted the prober's
	// patience. All zero on ideal links, so unimpaired reports are
	// byte-identical to pre-impairment ones.
	ProbeDrops    int `json:"ProbeDrops,omitzero"`
	ProbeRetries  int `json:"ProbeRetries,omitzero"`
	ProbeTimeouts int `json:"ProbeTimeouts,omitzero"`
	// Link-level impairment accounting from the sim's metrics registry:
	// transport retransmissions absorbed by the links, and flows lost
	// after every retry. Zero on ideal links.
	LinkRetransmits  int64 `json:"LinkRetransmits,omitzero"`
	LinkDroppedFlows int64 `json:"LinkDroppedFlows,omitzero"`

	// Log is the raw probe capture for further analysis. It is excluded
	// from the report's JSON form (shard reports must stay compact;
	// use cmd/gfwsim -dump for the full capture).
	Log *capture.Log `json:"-"`
}

// ShadowsocksExperiment reproduces §3.1: five Shadowsocks-libev pairs, one
// OutlineVPN pair, and an untouched control host, run for months of
// virtual time under the GFW model.
func ShadowsocksExperiment(cfg ShadowsocksConfig) (*ShadowsocksReport, error) {
	cfg = cfg.withDefaults()
	sim, net := simNet(cfg.Seed, cfg.Impair)
	gcfg := cfg.GFW
	gcfg.Seed = seedfork.Fork(cfg.Seed, "shadowsocks.gfw")
	g := gfw.New(gfw.Env{Sim: sim, Net: net}, gfw.WithConfig(gcfg))
	net.AddMiddlebox(g)

	type pair struct {
		name    string
		profile reaction.Profile
		method  string
		server  netsim.Endpoint
		client  netsim.Endpoint
		host    *ServerHost
		wl      trafficgen.Workload
	}
	mk := func(i int, name string, p reaction.Profile, method string, wl trafficgen.Workload) (*pair, error) {
		host, err := NewServerHost(sim, p, method, "experiment-pw")
		if err != nil {
			return nil, err
		}
		pr := &pair{
			name: name, profile: p, method: method,
			server: netsim.Endpoint{IP: fmt.Sprintf("178.62.1.%d", i+1), Port: 8388},
			client: netsim.Endpoint{IP: fmt.Sprintf("150.109.2.%d", i+1), Port: 50000},
			host:   host, wl: wl,
		}
		net.AddHost(pr.server, host)
		return pr, nil
	}

	// Five Shadowsocks-libev pairs (two old, three new, as in §3.1) plus
	// one OutlineVPN pair driven by Alexa browsing.
	var pairs []*pair
	specs := []struct {
		name    string
		profile reaction.Profile
		method  string
		wl      trafficgen.Workload
	}{
		{"libev-v3.1.3-a", reaction.LibevOld, "aes-256-gcm", trafficgen.CurlLoop},
		{"libev-v3.1.3-b", reaction.LibevOld, "aes-256-ctr", trafficgen.CurlLoop},
		{"libev-v3.3.1-a", reaction.LibevNew, "aes-256-gcm", trafficgen.CurlLoop},
		{"libev-v3.3.1-b", reaction.LibevNew, "chacha20-ietf", trafficgen.CurlLoop},
		{"libev-v3.3.1-c", reaction.LibevNew, "aes-128-gcm", trafficgen.CurlLoop},
		{"outline-v1.0.7", reaction.Outline107, "chacha20-ietf-poly1305", trafficgen.BrowseAlexa},
	}
	for i, s := range specs {
		p, err := mk(i, s.name, s.profile, s.method, s.wl)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, p)
	}

	// The control host: same datacenter, never connected to.
	control := netsim.Endpoint{IP: "178.62.1.250", Port: 8388}
	controlHost := &ServerHost{Sim: sim, Sink: true}
	net.AddHost(control, controlHost)

	// Drive each pair's curl/browse loop.
	end := netsim.Epoch.Add(time.Duration(cfg.Days) * 24 * time.Hour)
	interval := time.Hour / time.Duration(cfg.ConnsPerPairPerHour)
	for i, p := range pairs {
		p := p
		tg := trafficgen.New(seedfork.Fork(cfg.Seed, "shadowsocks.trafficgen", int64(i)))
		spec, err := sscrypto.Lookup(p.method)
		if err != nil {
			return nil, err
		}
		var tick func()
		tick = func() {
			if sim.Now().After(end) {
				return
			}
			wire := tg.FirstWirePacket(spec, p.wl)
			net.Connect(p.client, p.server, wire, false, time.Time{})
			sim.After(interval, tick)
		}
		sim.After(time.Duration(i)*time.Second, tick)
	}
	sim.Run()

	rep, err := buildShadowsocksReport(cfg, g, pairs, controlHost, func(p *pair) (string, reaction.Profile, string, netsim.Endpoint, *ServerHost) {
		return p.name, p.profile, p.method, p.server, p.host
	})
	if err != nil {
		return nil, err
	}
	rep.LinkRetransmits = sim.Metrics.Counter("net.impair_retransmits").Value()
	rep.LinkDroppedFlows = sim.Metrics.Counter("net.impair_dropped_flows").Value()
	return rep, nil
}

// buildShadowsocksReport assembles the report (generic over the pair type
// via an accessor to keep the pair struct local).
func buildShadowsocksReport[T any](cfg ShadowsocksConfig, g *gfw.GFW, pairs []T, control *ServerHost,
	get func(T) (string, reaction.Profile, string, netsim.Endpoint, *ServerHost)) (*ShadowsocksReport, error) {

	r := &ShadowsocksReport{Config: cfg, Log: g.Log}
	r.Triggers = g.Triggers
	r.Probes = g.Log.Len()
	r.ControlProbes = control.ProbesSeen
	r.ProbeDrops = g.ProbeDrops
	r.ProbeRetries = g.ProbeRetries
	r.ProbeTimeouts = g.ProbeTimeouts

	// Per-pair type analysis.
	typeByDst := map[string]map[probe.Type]int{}
	for i := range g.Log.Records {
		rec := &g.Log.Records[i]
		m, ok := typeByDst[rec.DstIP]
		if !ok {
			m = map[probe.Type]int{}
			typeByDst[rec.DstIP] = m
		}
		m[rec.Type]++
	}
	for _, p := range pairs {
		name, profile, method, server, host := get(p)
		tc := typeByDst[server.IP]
		total := 0
		for _, c := range tc {
			total += c
		}
		r.Pairs = append(r.Pairs, PairResult{
			Name: name, Profile: profile, Method: method,
			Probes: total, TypeCounts: tc, Stage: g.Stage(server),
		})
		_ = host
	}

	// Figure 2: NR1 length histogram and NR2 count.
	r.NR1Lengths = g.Log.LengthHistogram(func(rec *capture.Record) bool { return rec.Type == probe.NR1 })
	r.NR1Total = r.NR1Lengths.Total
	for i := range g.Log.Records {
		if g.Log.Records[i].Type == probe.NR2 {
			r.NR2Count++
		}
	}

	// Figure 3 / Table 2.
	per := g.Log.ProbesPerIP()
	r.UniqueIPs = len(per)
	r.MultiUseFraction = g.Log.MultiUseFraction()
	for _, c := range per {
		if c > r.MaxPerIP {
			r.MaxPerIP = c
		}
	}
	r.TopIPs = g.Log.TopIPs(10)

	// Table 3.
	r.ASCounts = g.Log.ASCounts()

	// Figure 5.
	ports := g.Log.SourcePorts()
	if ports.Len() > 0 {
		r.EphemeralPortShare = ports.P(60999) - ports.P(32767)
		r.MinPort = int(ports.Min())
		r.MaxPort = int(ports.Max())
	}

	// Figure 6.
	clusters := stats.ClusterTSvals(g.Log.TSPoints(), []float64{250, 1000}, 100000)
	for i := range clusters {
		if len(clusters[i].Points) >= 10 {
			r.TSClusters++
			if clusters[i].Rate == 1000 {
				r.Cluster1000Hz = len(clusters[i].Points)
			}
		}
	}
	if len(clusters) > 0 && len(clusters[0].Points) >= 2 {
		if rate, err := clusters[0].MeasuredRate(); err == nil {
			r.DominantRate = rate
		}
	}

	// Figure 7.
	r.DelayAll, r.DelayFirst = g.Log.ReplayDelays()

	// Figure 4: overlap with synthetic Ensafi/Dunna prober sets, built to
	// the region cardinalities documented in DESIGN.md.
	r.Overlap = syntheticOverlap(g, cfg.Seed)
	return r, nil
}

// syntheticOverlap builds the Figure 4 comparison: the paper's datasets
// are private, so the historical sets are synthesized with the documented
// overlap sizes relative to our observed prober IPs.
func syntheticOverlap(g *gfw.GFW, seed int64) capture.Overlap {
	ours := g.Log.UniqueIPs()
	rng := rand.New(rand.NewSource(seedfork.Fork(seed, "shadowsocks.overlap")))

	pickFromOurs := func(n int) []string {
		out := make([]string, 0, n)
		for _, i := range rng.Perm(len(ours)) {
			if len(out) == n {
				break
			}
			out = append(out, ours[i])
		}
		return out
	}
	synth := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s.%d.%d.%d", prefix, rng.Intn(223), rng.Intn(256), 1+rng.Intn(254))
		}
		return out
	}
	// Scale the documented overlaps to our observed set size.
	scale := float64(len(ours)) / 12300.0
	nAB := int(math.Round(167 * scale)) // ours ∩ Ensafi
	nAC := int(math.Round(5 * scale))   // ours ∩ Dunna
	if nAC == 0 {
		nAC = 1
	}
	shared := pickFromOurs(nAB + nAC)
	ensafi := append(synth("202", int(math.Round(21721*scale))), shared[:nAB]...)
	dunnaShared := synth("218", int(math.Round(34*scale))) // Ensafi ∩ Dunna
	ensafi = append(ensafi, dunnaShared...)
	dunna := append(synth("119", int(math.Round(895*scale))), dunnaShared...)
	dunna = append(dunna, shared[nAB:]...)
	return capture.ComputeOverlap(ours, ensafi, dunna)
}

// Render prints the report in the order the paper presents its artifacts.
func (r *ShadowsocksReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shadowsocks experiment (§3.1): %d days, %d trigger connections, %d probes\n",
		r.Config.Days, r.Triggers, r.Probes)
	fmt.Fprintf(&b, "  control host probes: %d (proactive scanning ruled out)\n\n", r.ControlProbes)

	fmt.Fprintf(&b, "Per-pair probe counts (R3/R4/R5 only reach OutlineVPN):\n")
	for _, p := range r.Pairs {
		fmt.Fprintf(&b, "  %-16s %-24s probes=%-6d R1=%d R2=%d R3=%d R4=%d R5=%d NR1=%d NR2=%d stage=%d\n",
			p.Name, p.Method, p.Probes,
			p.TypeCounts[probe.R1], p.TypeCounts[probe.R2], p.TypeCounts[probe.R3],
			p.TypeCounts[probe.R4], p.TypeCounts[probe.R5],
			p.TypeCounts[probe.NR1], p.TypeCounts[probe.NR2], p.Stage)
	}

	fmt.Fprintf(&b, "\nFigure 2: NR1 lengths (trios around 8,12,16,22,33,41,49); NR2(221B)=%d ≈ %.1f× all NR1 (%d)\n",
		r.NR2Count, float64(r.NR2Count)/math.Max(1, float64(r.NR1Total)), r.NR1Total)
	keys := r.NR1Lengths.Keys()
	for _, k := range keys {
		fmt.Fprintf(&b, "  len %2d: %d\n", k, r.NR1Lengths.Count(k))
	}

	fmt.Fprintf(&b, "\nFigure 3: %d unique prober IPs, %.0f%% used more than once, max %d probes from one IP\n",
		r.UniqueIPs, r.MultiUseFraction*100, r.MaxPerIP)
	fmt.Fprintf(&b, "Table 2: most common prober IPs:\n")
	for _, ip := range r.TopIPs {
		fmt.Fprintf(&b, "  %-18s %d\n", ip.IP, ip.Count)
	}

	fmt.Fprintf(&b, "Table 3: unique prober IPs per AS:\n")
	type asn struct{ id, n int }
	var asns []asn
	for id, n := range r.ASCounts {
		asns = append(asns, asn{id, n})
	}
	sort.Slice(asns, func(i, j int) bool { return asns[i].n > asns[j].n })
	for _, a := range asns {
		fmt.Fprintf(&b, "  AS%-6d %d\n", a.id, a.n)
	}

	fmt.Fprintf(&b, "\nFigure 5: %.1f%% of source ports in 32768–60999; min %d, max %d\n",
		r.EphemeralPortShare*100, r.MinPort, r.MaxPort)
	fmt.Fprintf(&b, "Figure 6: %d shared TSval processes (dominant ≈ %.1f Hz; 1000 Hz cluster has %d probes)\n",
		r.TSClusters, r.DominantRate, r.Cluster1000Hz)
	if r.DelayAll.Len() > 0 {
		fmt.Fprintf(&b, "Figure 7: replay delays — first: P(1s)=%.0f%% P(1min)=%.0f%% P(15min)=%.0f%%; min %.2fs max %.1fh\n",
			r.DelayFirst.P(1)*100, r.DelayFirst.P(60)*100, r.DelayFirst.P(900)*100,
			r.DelayAll.Min(), r.DelayAll.Max()/3600)
	}
	fmt.Fprintf(&b, "Figure 4: overlap — ours-only=%d ensafi-only=%d dunna-only=%d ours∩ensafi=%d ours∩dunna=%d ensafi∩dunna=%d\n",
		r.Overlap.AOnly, r.Overlap.BOnly, r.Overlap.COnly, r.Overlap.AB, r.Overlap.AC, r.Overlap.BC)
	return b.String()
}
