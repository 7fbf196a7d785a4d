package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"sslab/internal/detector"
	"sslab/internal/entropy"
	"sslab/internal/experiment"
	"sslab/internal/gfw"
	"sslab/internal/metrics"
	"sslab/internal/netsim"
	"sslab/internal/probe"
	"sslab/internal/reaction"
	"sslab/internal/replay"
	"sslab/internal/seedfork"
	"sslab/internal/sscrypto"
	"sslab/internal/trafficgen"
)

// Layer call timings: fresh inputs generated from the workload seed,
// driven through one layer's public function in a timed loop. Input
// generation stays outside the timed region.

// fleetMix is the fleet's default implementation mix as first-flight
// inputs: each implementation's cipher and its share of servers.
var fleetMix = []struct {
	method string
	weight float64
}{
	{"aes-256-cfb", 0.15},            // libev-old
	{"aes-256-gcm", 0.30},            // libev-new
	{"chacha20-ietf-poly1305", 0.20}, // outline
	{"aes-256-cfb", 0.20},            // sspython
	{"aes-256-ctr", 0.15},            // ssr
}

// mixSpecs looks up the fleet mix's ciphers, in fleetMix order.
func mixSpecs() ([]sscrypto.Spec, error) {
	specs := make([]sscrypto.Spec, len(fleetMix))
	for i, m := range fleetMix {
		s, err := sscrypto.Lookup(m.method)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

// mixFlights generates n first wire packets over the fleet mix.
func mixFlights(seed int64, n int) ([][]byte, error) {
	specs, err := mixSpecs()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seedfork.Fork(seed, "perfbench.mix")))
	tg := trafficgen.New(seedfork.Fork(seed, "perfbench.trafficgen"))
	out := make([][]byte, n)
	for i := range out {
		spec, wl := pickMix(rng, specs)
		out[i] = tg.AppendProtocolFirstPacket(nil, spec, wl)
	}
	return out, nil
}

// pickMix draws a server's cipher by mix weight and a user's workload,
// browsing for 30% of users as in the fleet's default BrowseShare.
func pickMix(rng *rand.Rand, specs []sscrypto.Spec) (sscrypto.Spec, trafficgen.Workload) {
	x := rng.Float64()
	k := len(fleetMix) - 1
	for i, m := range fleetMix {
		if x < m.weight {
			k = i
			break
		}
		x -= m.weight
	}
	wl := trafficgen.CurlLoop
	if rng.Float64() < 0.3 {
		wl = trafficgen.BrowseAlexa
	}
	return specs[k], wl
}

func nsPer(start time.Time, calls int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// trafficgenNs times AppendProtocolFirstPacket over the fleet mix.
func trafficgenNs(seed int64) (float64, error) {
	const n = 40000
	specs, err := mixSpecs()
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(seedfork.Fork(seed, "perfbench.mix")))
	kinds := make([]sscrypto.Spec, n)
	wls := make([]trafficgen.Workload, n)
	for i := range kinds {
		kinds[i], wls[i] = pickMix(rng, specs)
	}
	tg := trafficgen.New(seedfork.Fork(seed, "perfbench.trafficgen"))
	buf := make([]byte, 0, 4096)
	start := time.Now()
	for i := 0; i < n; i++ {
		buf = tg.AppendProtocolFirstPacket(buf[:0], kinds[i], wls[i])
	}
	return nsPer(start, n), nil
}

// detectorNs times the classic Shadowsocks detector chain over fleet-mix
// first flights.
func detectorNs(flights [][]byte) float64 {
	chain := detector.MustChain([]string{detector.StageShadowsocks}, detector.Params{})
	flows := make([]netsim.Flow, len(flights))
	for i, p := range flights {
		flows[i] = netsim.Flow{
			Client:       netsim.Endpoint{IP: "150.109.0.1", Port: 40000 + i%20000},
			Server:       netsim.Endpoint{IP: "178.62.0.1", Port: 8388},
			FirstPayload: p,
		}
	}
	start := time.Now()
	for i := range flows {
		chain.Observe(&flows[i])
	}
	return nsPer(start, len(flows))
}

// ingestNs times flow ingestion into a network with the censor attached:
// scalar Network.Connect per flow, or ConnectBatch with a batch of one
// as the fleet submits flows. Both paths see the same payloads, servers
// and censor configuration; virtual time does not advance, so the
// measurement is ingestion alone.
func ingestNs(seed int64, flights [][]byte, batch bool) float64 {
	sim := netsim.NewSim(netsim.WithSeed(seed))
	nw := netsim.NewNetwork(sim)
	g := gfw.New(gfw.Env{Sim: sim, Net: nw}, gfw.WithConfig(gfw.Config{
		Seed: seedfork.Fork(seed, "perfbench.ingest.gfw"), PoolSize: 2000, NoProbeLog: true,
	}))
	nw.AddMiddlebox(g)
	const servers = 400
	host := netsim.HostFunc(func(*netsim.Flow) netsim.Outcome {
		return netsim.Outcome{Reaction: reaction.Data, ResponseLen: 1200}
	})
	eps := make([]netsim.Endpoint, servers)
	for i := range eps {
		eps[i] = netsim.Endpoint{IP: ipOf(178, i), Port: 8388}
		nw.AddHost(eps[i], host)
	}
	clients := make([]netsim.Endpoint, len(flights))
	for i := range clients {
		clients[i] = netsim.Endpoint{IP: ipOf(150, i%50000), Port: 40000 + i%20000}
	}
	var spec [1]netsim.FlowSpec
	var out []netsim.Outcome
	start := time.Now()
	for i, p := range flights {
		srv := eps[i%servers]
		if batch {
			spec[0] = netsim.FlowSpec{Client: clients[i], Server: srv, FirstPayload: p}
			out = nw.ConnectBatch(spec[:], out[:0])
		} else {
			nw.Connect(clients[i], srv, p, false, time.Time{})
		}
	}
	return nsPer(start, len(flights))
}

func ipOf(first, i int) string {
	return fmt.Sprintf("%d.%d.%d.%d", first, byte(i>>16), byte(i>>8), byte(i))
}

// gapTable is a cycle of exponential gaps with the given mean.
func gapTable(seed int64, label string, mean time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seedfork.Fork(seed, label)))
	gaps := make([]time.Duration, 4096)
	for i := range gaps {
		gaps[i] = time.Duration(rng.ExpFloat64()*float64(mean)) + time.Second
	}
	return gaps
}

// timerLoad drives self-rescheduling timers: each firing re-arms its
// timer after the next gap from the table until the horizon.
type timerLoad struct {
	sim   *netsim.Sim
	wheel *netsim.Wheel
	gaps  []time.Duration
	next  int
	end   time.Time
	fired int
}

type timerArg struct{ l *timerLoad }

func fireTimer(x any) {
	a := x.(*timerArg)
	l := a.l
	l.fired++
	gap := l.gaps[l.next&(len(l.gaps)-1)]
	l.next++
	if t := l.sim.Now().Add(gap); t.Before(l.end) {
		if l.wheel != nil {
			l.wheel.Schedule(t, fireTimer, a)
		} else {
			l.sim.AtCall(t, fireTimer, a)
		}
	}
}

// schedulerNs times a timer load on the timing wheel (the fleet's shape:
// many users, half-hour mean gaps) or on the event heap (the
// experiments' shape: a few hundred pending events, minute-scale gaps).
// It returns ns per fired timer.
func schedulerNs(seed int64, wheel bool) float64 {
	sim := netsim.NewSim(netsim.WithSeed(seed))
	l := &timerLoad{sim: sim}
	timers, mean, horizon := 300, time.Minute, 12*time.Hour
	if wheel {
		l.wheel = netsim.NewWheel(sim)
		timers, mean, horizon = 20000, 30*time.Minute, 8*time.Hour
	}
	l.gaps = gapTable(seed, "perfbench.timers", mean)
	l.end = netsim.Epoch.Add(horizon)
	args := make([]timerArg, timers)
	for i := range args {
		args[i].l = l
		at := netsim.Epoch.Add(l.gaps[(i*7)&(len(l.gaps)-1)])
		if wheel {
			l.wheel.Schedule(at, fireTimer, &args[i])
		} else {
			sim.AtCall(at, fireTimer, &args[i])
		}
	}
	start := time.Now()
	sim.Run()
	return nsPer(start, l.fired)
}

// entropyNs times Generator.Payload at the sink experiments' targets:
// entropy 1.2 over lengths 1–1000 (Exp 2) and uniform [0, 8) over
// lengths 1–2000 (Exp 3), alternating.
func entropyNs(seed int64) float64 {
	const n = 4000
	rng := rand.New(rand.NewSource(seedfork.Fork(seed, "perfbench.entropy.inputs")))
	lens := make([]int, n)
	targets := make([]float64, n)
	for i := range lens {
		if i%2 == 0 {
			lens[i], targets[i] = 1+rng.Intn(1000), 1.2
		} else {
			lens[i], targets[i] = 1+rng.Intn(2000), rng.Float64()*8
		}
	}
	gen := entropy.NewGenerator(seedfork.Fork(seed, "perfbench.entropy"))
	start := time.Now()
	for i := range lens {
		gen.Payload(lens[i], targets[i])
	}
	return nsPer(start, n)
}

// replayNs times NonceFilter.Replay on fresh 32-byte salts, the check
// every AEAD server host makes per client flow.
func replayNs(seed int64) float64 {
	const n = 100000
	rng := rand.New(rand.NewSource(seedfork.Fork(seed, "perfbench.replay")))
	salts := make([]byte, 32*n)
	rng.Read(salts)
	f := replay.NewNonceFilter(1 << 16)
	now := netsim.Epoch
	start := time.Now()
	for i := 0; i < n; i++ {
		f.Replay(salts[32*i:32*i+32], now)
	}
	return nsPer(start, n)
}

// replayFilterKB is the heap one NewNonceFilter(1<<16) holds — the
// filter every replay-defended reaction server allocates.
func replayFilterKB() float64 {
	const k = 8
	keep := make([]*replay.NonceFilter, k)
	before := heapLiveMB()
	for i := range keep {
		keep[i] = replay.NewNonceFilter(1 << 16)
	}
	after := heapLiveMB()
	runtime.KeepAlive(keep)
	return (after - before) * 1e3 / k
}

// reactionNs times Server.React on random probes at the NR1 and NR2
// lengths against a libev-new server with a stream or an AEAD cipher.
func reactionNs(seed int64, method string) (float64, error) {
	const n = 20000
	spec, err := sscrypto.Lookup(method)
	if err != nil {
		return 0, err
	}
	srv, err := reaction.NewServer(reaction.LibevNew, spec, "perfbench-pw")
	if err != nil {
		return 0, err
	}
	lengths := append(probe.NR1Lengths(), probe.NR2Length)
	rng := rand.New(rand.NewSource(seedfork.Fork(seed, "perfbench.reaction", int64(spec.Kind))))
	payloads := make([][]byte, n)
	for i := range payloads {
		payloads[i] = make([]byte, lengths[rng.Intn(len(lengths))])
		rng.Read(payloads[i])
	}
	now := netsim.Epoch
	start := time.Now()
	for _, p := range payloads {
		srv.React(p, now)
	}
	return nsPer(start, n), nil
}

// ssLab is the shadowsocks experiment's lab rebuilt from its public
// constructors: simulator, network, censor (with its prober pool) and
// the six reaction-server hosts.
type ssLab struct {
	sim     *netsim.Sim
	nw      *netsim.Network
	servers []netsim.Endpoint
}

func newSSLab(cfg experiment.ShadowsocksConfig, opts ...netsim.Option) (*ssLab, error) {
	sim := netsim.NewSim(append([]netsim.Option{netsim.WithSeed(cfg.Seed)}, opts...)...)
	nw := netsim.NewNetwork(sim)
	gcfg := cfg.GFW
	gcfg.Seed = seedfork.Fork(cfg.Seed, "shadowsocks.gfw")
	nw.AddMiddlebox(gfw.New(gfw.Env{Sim: sim, Net: nw}, gfw.WithConfig(gcfg)))
	lab := &ssLab{sim: sim, nw: nw}
	for i, p := range paperPairs {
		host, err := experiment.NewServerHost(sim, p.profile, p.method, "experiment-pw")
		if err != nil {
			return nil, err
		}
		server := netsim.Endpoint{IP: ipOf(178, i+1), Port: 8388}
		nw.AddHost(server, host)
		lab.servers = append(lab.servers, server)
	}
	return lab, nil
}

// paperLab drives a rebuilt shadowsocks lab's client loop, with a
// metrics registry attached, for a few virtual days, so the scalar
// path's scheduler counts (events per flow, heap peak) can be read
// exactly.
func paperLab(cfg experiment.ShadowsocksConfig, days int) (*metrics.Registry, error) {
	reg := metrics.New()
	lab, err := newSSLab(cfg, netsim.WithMetrics(reg))
	if err != nil {
		return nil, err
	}
	sim, nw := lab.sim, lab.nw
	end := netsim.Epoch.Add(time.Duration(days) * 24 * time.Hour)
	interval := time.Hour / time.Duration(cfg.ConnsPerPairPerHour)
	for i, p := range paperPairs {
		spec, err := sscrypto.Lookup(p.method)
		if err != nil {
			return nil, err
		}
		server, client := lab.servers[i], netsim.Endpoint{IP: ipOf(150, i+1), Port: 50000}
		tg := trafficgen.New(seedfork.Fork(cfg.Seed, "shadowsocks.trafficgen", int64(i)))
		wl := p.wl
		var tick func()
		tick = func() {
			if sim.Now().After(end) {
				return
			}
			nw.Connect(client, server, tg.FirstWirePacket(spec, wl), false, time.Time{})
			sim.After(interval, tick)
		}
		sim.After(time.Duration(i)*time.Second, tick)
	}
	sim.Run()
	return reg, nil
}

// paperPairs are the shadowsocks experiment's six client/server pairs.
var paperPairs = []struct {
	profile reaction.Profile
	method  string
	wl      trafficgen.Workload
}{
	{reaction.LibevOld, "aes-256-gcm", trafficgen.CurlLoop},
	{reaction.LibevOld, "aes-256-ctr", trafficgen.CurlLoop},
	{reaction.LibevNew, "aes-256-gcm", trafficgen.CurlLoop},
	{reaction.LibevNew, "chacha20-ietf", trafficgen.CurlLoop},
	{reaction.LibevNew, "aes-128-gcm", trafficgen.CurlLoop},
	{reaction.Outline107, "chacha20-ietf-poly1305", trafficgen.BrowseAlexa},
}

// paperSetup times building the labs the shadowsocks and sink
// experiments build before their event loops: the shadowsocks lab, and
// the three sink labs' simulators, networks, censors and payload
// generators.
func paperSetup(ss experiment.ShadowsocksConfig, sink experiment.SinkConfig) (float64, error) {
	start := time.Now()
	if _, err := newSSLab(ss); err != nil {
		return 0, err
	}
	for _, variant := range []string{"exp1", "exp2", "exp3"} {
		sim := netsim.NewSim(netsim.WithSeed(sink.Seed))
		nw := netsim.NewNetwork(sim)
		gcfg := sink.GFW
		gcfg.Seed = seedfork.Fork(sink.Seed, "sink."+variant+".gfw")
		nw.AddMiddlebox(gfw.New(gfw.Env{Sim: sim, Net: nw}, gfw.WithConfig(gcfg)))
		entropy.NewGenerator(seedfork.Fork(sink.Seed, "sink."+variant+".entropy"))
	}
	return time.Since(start).Seconds(), nil
}

// probeSetup times building the reaction servers the probe experiments
// scan: every built-in profile with a stream and an AEAD cipher of each
// family, each with its replay filter.
func probeSetup() (float64, error) {
	var specs []sscrypto.Spec
	for _, m := range []string{"aes-256-ctr", "chacha20", "aes-256-gcm", "chacha20-ietf-poly1305"} {
		s, err := sscrypto.Lookup(m)
		if err != nil {
			return 0, err
		}
		specs = append(specs, s)
	}
	start := time.Now()
	var keep []*reaction.Server
	for _, p := range reaction.Profiles() {
		for _, s := range specs {
			srv, err := reaction.NewServer(p, s, "matrix-pw")
			if err != nil {
				continue // AEAD-only profiles refuse stream ciphers
			}
			keep = append(keep, srv)
		}
	}
	d := time.Since(start).Seconds()
	runtime.KeepAlive(keep)
	return d, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
