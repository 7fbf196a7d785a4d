package fleet

import (
	"encoding/json"
	"testing"
)

// smallCfg is a population small enough for unit tests but big enough
// to exercise every engine path (diurnal thinning, probing, blocking,
// replacement).
func smallCfg(seed int64) Config {
	return Config{
		Seed:           seed,
		Users:          500,
		UsersPerServer: 25,
		Hours:          6,
		BucketMin:      30,
	}
}

func mustRun(t *testing.T, cfg Config) *Report {
	t.Helper()
	rep, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return rep
}

func reportJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return b
}

// TestFleetDeterminism pins the core contract: equal seeds give
// byte-identical reports.
func TestFleetDeterminism(t *testing.T) {
	a := reportJSON(t, mustRun(t, smallCfg(7)))
	b := reportJSON(t, mustRun(t, smallCfg(7)))
	if string(a) != string(b) {
		t.Fatal("same-seed fleet runs produced different reports")
	}
	c := reportJSON(t, mustRun(t, smallCfg(8)))
	if string(a) == string(c) {
		t.Fatal("different seeds produced identical reports (seed is not wired through)")
	}
}

// TestFleetShape checks structural invariants of a run's report.
func TestFleetShape(t *testing.T) {
	cfg := smallCfg(11)
	rep := mustRun(t, cfg)

	if rep.Users != cfg.Users {
		t.Fatalf("Users = %d, want %d", rep.Users, cfg.Users)
	}
	if want := cfg.Users / cfg.UsersPerServer; rep.Servers != want {
		t.Fatalf("Servers = %d, want %d", rep.Servers, want)
	}
	if rep.Wakeups == 0 || rep.Flows == 0 {
		t.Fatalf("engine idle: wakeups=%d flows=%d", rep.Wakeups, rep.Flows)
	}
	if rep.Flows > rep.Wakeups {
		t.Fatalf("flows (%d) exceed wakeups (%d): diurnal thinning missing", rep.Flows, rep.Wakeups)
	}
	buckets := cfg.Hours * 60 / cfg.BucketMin
	if len(rep.BlockedCurve) != buckets || len(rep.ProbeLoad) != buckets {
		t.Fatalf("series lengths %d/%d, want %d buckets",
			len(rep.BlockedCurve), len(rep.ProbeLoad), buckets)
	}
	var tsFlows int64
	for _, n := range rep.FlowsPerBucket.Counts {
		tsFlows += n
	}
	if tsFlows != rep.Flows {
		t.Fatalf("FlowsPerBucket sums to %d, want Flows=%d", tsFlows, rep.Flows)
	}
	// Median wake gap should track the configured Poisson rate:
	// exp(mean 30min) has median 30·ln2 ≈ 20.8 min.
	gapMin := rep.MedianWakeGapS / 60
	if gapMin < 15 || gapMin > 27 {
		t.Fatalf("median wake gap %.1f min, want ≈ 20.8 min", gapMin)
	}
}

// TestFleetBlockingDynamics drives an all-undefended population at full
// censor sensitivity and checks the block → user-outage → replacement
// chain fires.
func TestFleetBlockingDynamics(t *testing.T) {
	cfg := smallCfg(3)
	cfg.Users = 800
	cfg.UsersPerServer = 40
	cfg.Hours = 12
	cfg.PeakFlowsPerHour = 6
	cfg.Mix = []ImplShare{{Impl: "sspython", Weight: 1}}
	cfg.GFW.Sensitivity = 1
	cfg.GFW.ReplayBase = 0.3 // record aggressively so blocks arrive in a small run
	rep := mustRun(t, cfg)

	if rep.Blocks == 0 {
		t.Fatal("no block events against an all-undefended population at sensitivity 1")
	}
	if rep.EverBlockedUsers == 0 {
		t.Fatal("block events occurred but no user ever observed an outage")
	}
	if rep.Replacements == 0 {
		t.Fatal("users were blocked but no server was ever replaced")
	}
	if rep.DetectionLatency.N == 0 {
		t.Fatal("blocks occurred but no detection latency was resolved (epochs map broken)")
	}
	if rep.ServerLifetime.N != rep.Replacements {
		t.Fatalf("lifetime samples %d != replacements %d", rep.ServerLifetime.N, rep.Replacements)
	}
	if rep.BlockedUserFraction <= 0 || rep.BlockedUserFraction > 1 {
		t.Fatalf("BlockedUserFraction = %v", rep.BlockedUserFraction)
	}
	if rep.DetectionLatency.P50 <= 0 {
		t.Fatalf("median detection latency %v s", rep.DetectionLatency.P50)
	}
}

// TestFleetNeverBlockCensor pins the negative-Sensitivity contract: the
// censor probes but never blocks, so no user ever observes an outage.
func TestFleetNeverBlockCensor(t *testing.T) {
	cfg := smallCfg(5)
	cfg.Mix = []ImplShare{{Impl: "sspython", Weight: 1}}
	cfg.PeakFlowsPerHour = 6
	cfg.GFW.Sensitivity = -1
	rep := mustRun(t, cfg)

	if rep.ProbesSent == 0 {
		t.Fatal("probe-only censor sent no probes")
	}
	if rep.Blocks != 0 || rep.EverBlockedUsers != 0 || rep.Replacements != 0 {
		t.Fatalf("negative sensitivity still blocked: blocks=%d users=%d repl=%d",
			rep.Blocks, rep.EverBlockedUsers, rep.Replacements)
	}
	for _, n := range rep.BlockedCurve {
		if n != 0 {
			t.Fatal("BlockedCurve nonzero under a never-block censor")
		}
	}
}

// TestFleetDefendedMixResists checks the paper's §6 asymmetry: a
// population of replay-defended servers (libev-new) survives the same
// censor that blocks undefended ones.
func TestFleetDefendedMixResists(t *testing.T) {
	cfg := smallCfg(3)
	cfg.PeakFlowsPerHour = 6
	cfg.Mix = []ImplShare{{Impl: "libev-new", Weight: 1}}
	cfg.GFW.Sensitivity = 1
	rep := mustRun(t, cfg)
	if rep.Blocks != 0 {
		t.Fatalf("replay-defended population got %d block events", rep.Blocks)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	cfg := smallCfg(1)
	cfg.Mix = []ImplShare{{Impl: "no-such-impl", Weight: 1}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown implementation accepted")
	}
	cfg = smallCfg(1)
	cfg.Mix = []ImplShare{{Impl: "ssr", Weight: -1}}
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative mix weight accepted")
	}
}
