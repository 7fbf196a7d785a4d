package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4, 5})
	if c.Len() != 5 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.P(2); got != 0.4 {
		t.Errorf("P(2) = %v, want 0.4", got)
	}
	if got := c.P(0.5); got != 0 {
		t.Errorf("P(0.5) = %v, want 0", got)
	}
	if got := c.P(5); got != 1 {
		t.Errorf("P(5) = %v, want 1", got)
	}
	if c.Min() != 1 || c.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", c.Min(), c.Max())
	}
	if got := c.Quantile(0.5); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.P(1) != 0 {
		t.Error("empty CDF P != 0")
	}
	if !math.IsNaN(c.Quantile(0.5)) {
		t.Error("empty CDF quantile not NaN")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int{5, 5, 5, 3, 3, 9} {
		h.Add(v)
	}
	if h.Count(5) != 3 || h.Count(3) != 2 || h.Count(7) != 0 {
		t.Error("counts wrong")
	}
	if h.Fraction(5) != 0.5 {
		t.Errorf("Fraction(5) = %v", h.Fraction(5))
	}
	keys := h.Keys()
	if len(keys) != 3 || keys[0] != 3 || keys[2] != 9 {
		t.Errorf("Keys = %v", keys)
	}
}

func TestLinearFit(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := []float64{1, 3.5, 6, 8.5, 11} // slope 2.5, intercept 1
	slope, intercept, err := linearFit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(slope-2.5) > 1e-9 || math.Abs(intercept-1) > 1e-9 {
		t.Errorf("fit = (%v, %v)", slope, intercept)
	}
	if _, _, err := linearFit([]float64{1}, []float64{2}); err == nil {
		t.Error("single point accepted")
	}
	if _, _, err := linearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Error("degenerate x accepted")
	}
}

// synthProcs generates observations from k timestamp processes at the
// given rates and returns the points, mimicking Figure 6's data.
func synthProcs(rng *rand.Rand, counts []int, rates []float64) []TSPoint {
	var points []TSPoint
	for i, n := range counts {
		offset := rng.Uint32()
		for j := 0; j < n; j++ {
			tsec := rng.Float64() * 3600 * 24 * 30 // a month of observations
			v := uint32(uint64(offset) + uint64(rates[i]*tsec))
			points = append(points, TSPoint{T: tsec, TSval: v})
		}
	}
	rng.Shuffle(len(points), func(i, j int) { points[i], points[j] = points[j], points[i] })
	return points
}

// TestClusterTSvals reproduces the Figure 6 analysis: seven 250 Hz
// processes (one dominant) and one small 1000 Hz process must be
// recoverable from the mixed observations.
func TestClusterTSvals(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	counts := []int{2000, 120, 90, 80, 60, 50, 40, 22}
	rates := []float64{250, 250, 250, 250, 250, 250, 250, 1000}
	points := synthProcs(rng, counts, rates)

	clusters := ClusterTSvals(points, []float64{250, 1000}, 5000)

	big := 0
	var rate1000 *TSCluster
	for i := range clusters {
		c := &clusters[i]
		if len(c.Points) >= 20 {
			big++
			if c.Rate == 1000 {
				rate1000 = c
			}
		}
	}
	if big != 8 {
		t.Errorf("found %d substantial clusters, want 8 (7×250Hz + 1×1000Hz)", big)
	}
	if rate1000 == nil {
		t.Fatal("1000 Hz cluster not found")
	}
	if len(rate1000.Points) != 22 {
		t.Errorf("1000 Hz cluster has %d points, want 22", len(rate1000.Points))
	}

	// The dominant cluster's measured rate should be almost exactly 250 Hz.
	dom := &clusters[0]
	got, err := dom.MeasuredRate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-250) > 1 {
		t.Errorf("dominant cluster rate %.2f Hz, want ≈250", got)
	}
}

// TestClusterTSvalsWraparound covers sequences crossing 2^32 (the paper
// saw two wrap-arounds).
func TestClusterTSvalsWraparound(t *testing.T) {
	var points []TSPoint
	const rate = 250.0
	offset := uint32(math.MaxUint32 - 100000) // wraps within ~400 s
	for j := 0; j < 200; j++ {
		tsec := float64(j) * 10
		v := uint32(uint64(offset) + uint64(rate*tsec)) // natural wrap via uint32
		points = append(points, TSPoint{T: tsec, TSval: v})
	}
	clusters := ClusterTSvals(points, []float64{250}, 5000)
	if len(clusters[0].Points) != 200 {
		t.Fatalf("wrap split the cluster: %d of 200 points", len(clusters[0].Points))
	}
	got, err := clusters[0].MeasuredRate()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-250) > 1 {
		t.Errorf("rate across wrap %.2f, want 250", got)
	}
}

func TestSparkline(t *testing.T) {
	line := Sparkline([]int{0, 0, 5, 10, 0, 0}, 1)
	if len([]rune(line)) != 6 {
		t.Fatalf("length %d", len([]rune(line)))
	}
	if line[0] != ' ' {
		t.Error("zero bucket not blank")
	}
	if []rune(line)[3] != '@' {
		t.Errorf("max bucket glyph %q", line[3])
	}
	if got := Sparkline([]int{1, 2, 3, 4}, 2); len([]rune(got)) != 2 {
		t.Errorf("bucketing wrong: %q", got)
	}
	if got := Sparkline(nil, 0); got != "" {
		t.Errorf("empty input gave %q", got)
	}
}

func TestSPRTOneShotForDistinctiveProtocol(t *testing.T) {
	// Tor-like: the probe response is essentially unique to the protocol.
	s := &SPRT{
		H1: map[string]float64{"tor-handshake": 0.999, "other": 0.001},
		H0: map[string]float64{"other": 0.999},
	}
	if v := s.Observe("tor-handshake"); v != AcceptH1 {
		t.Errorf("verdict after one distinctive observation: %v", v)
	}
	if s.N() != 1 {
		t.Errorf("N = %d", s.N())
	}
}

func TestSPRTNeedsSetForStatisticalDifference(t *testing.T) {
	// Shadowsocks-stream-like: reactions differ from an innocuous server
	// only in proportions, so several observations are needed.
	rng := rand.New(rand.NewSource(3))
	h1 := map[string]float64{"RST": 13.0 / 16, "TIMEOUT": 2.0 / 16, "FIN": 1.0 / 16}
	h0 := map[string]float64{"RST": 0.3, "TIMEOUT": 0.4, "FIN": 0.1, "DATA": 0.2}
	// Outcomes are drawn in sorted key order: map order would give the
	// fixed seed a different sequence on every run.
	keys := make([]string, 0, len(h1))
	for k := range h1 {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	draw := func() string {
		x := rng.Float64()
		acc := 0.0
		for _, k := range keys {
			acc += h1[k]
			if x < acc {
				return k
			}
		}
		return "RST"
	}
	const beta = 0.01 // the SPRT's default false-negative bound
	total, rejected, trials := 0, 0, 200
	for i := 0; i < trials; i++ {
		s := &SPRT{H1: h1, H0: h0}
		for {
			if v := s.Observe(draw()); v != Undecided {
				if v != AcceptH1 {
					rejected++
				}
				break
			}
		}
		total += s.N()
	}
	if limit := int(math.Ceil(beta * float64(trials))); rejected > limit {
		t.Errorf("true H1 rejected in %d of %d trials, want at most %d (Beta = %v)", rejected, trials, limit, beta)
	}
	mean := float64(total) / float64(trials)
	if mean < 2 || mean > 40 {
		t.Errorf("mean probes to confirm = %.1f, want a small set (>1)", mean)
	}
}

func TestSPRTRejectsInnocuous(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	h1 := map[string]float64{"TIMEOUT": 1.0}
	h0 := map[string]float64{"RST": 0.5, "DATA": 0.3, "TIMEOUT": 0.2}
	wrong := 0
	for i := 0; i < 100; i++ {
		s := &SPRT{H1: h1, H0: h0}
		for n := 0; n < 1000; n++ {
			x := rng.Float64()
			out := "RST"
			if x > 0.5 && x <= 0.8 {
				out = "DATA"
			} else if x > 0.8 {
				out = "TIMEOUT"
			}
			if v := s.Observe(out); v != Undecided {
				if v == AcceptH1 {
					wrong++
				}
				break
			}
		}
	}
	if wrong > 5 {
		t.Errorf("false positives: %d/100, want ≈ alpha", wrong)
	}
}

func TestSPRTNeverDecidesIdenticalHypotheses(t *testing.T) {
	h := map[string]float64{"TIMEOUT": 1.0}
	s := &SPRT{H1: h, H0: h}
	for i := 0; i < 500; i++ {
		if v := s.Observe("TIMEOUT"); v != Undecided {
			t.Fatalf("identical hypotheses decided at n=%d: %v", i+1, v)
		}
	}
}
