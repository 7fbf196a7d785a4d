package entropy

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestShannonKnownValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		want float64
	}{
		{"empty", nil, 0},
		{"single byte", []byte{0x42}, 0},
		{"constant run", make([]byte, 1000), 0},
		{"two symbols equal", []byte{0, 1, 0, 1, 0, 1, 0, 1}, 1},
		{"four symbols equal", []byte{0, 1, 2, 3, 0, 1, 2, 3}, 2},
	} {
		if got := Shannon(tc.in); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Shannon = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestShannonAll256(t *testing.T) {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(i)
	}
	if got := Shannon(b); math.Abs(got-8) > 1e-12 {
		t.Errorf("Shannon over all 256 values = %v, want 8", got)
	}
}

// TestShannonBounds property-tests 0 <= H <= 8 and H <= log2(len).
func TestShannonBounds(t *testing.T) {
	f := func(b []byte) bool {
		h := Shannon(b)
		if h < 0 || h > 8 {
			return false
		}
		if len(b) > 0 && h > math.Log2(float64(len(b)))+1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestGeneratorHitsTargets verifies generated payloads land near the
// requested entropy across the whole [0,8] range used by Exp 3 (Table 4).
func TestGeneratorHitsTargets(t *testing.T) {
	g := NewGenerator(1)
	for _, target := range []float64{0, 0.5, 1, 2, 3, 4, 5, 6, 7, 7.5, 8} {
		p := g.Payload(1000, target)
		got := Shannon(p)
		// Tolerance: alphabet quantization limits precision at the top end.
		tol := 0.35
		if math.Abs(got-target) > tol {
			t.Errorf("target %.2f: got entropy %.3f (payload len %d)", target, got, len(p))
		}
	}
}

// TestGeneratorLowEntropy covers Exp 2's requirement: entropy < 2.
func TestGeneratorLowEntropy(t *testing.T) {
	g := NewGenerator(2)
	for i := 0; i < 50; i++ {
		n := 1 + g.Intn(1000)
		p := g.Payload(n, 1.0)
		if h := Shannon(p); h >= 2 {
			t.Errorf("len %d: entropy %.3f, want < 2", n, h)
		}
	}
}

// TestGeneratorHighEntropy covers Exp 1's requirement: entropy > 7 for
// payloads long enough to express it.
func TestGeneratorHighEntropy(t *testing.T) {
	g := NewGenerator(3)
	for i := 0; i < 50; i++ {
		n := 300 + g.Intn(700)
		p := g.Payload(n, 8)
		if h := Shannon(p); h <= 7 {
			t.Errorf("len %d: entropy %.3f, want > 7", n, h)
		}
	}
}

func TestGeneratorShortPayloads(t *testing.T) {
	g := NewGenerator(4)
	if p := g.Payload(0, 5); p != nil {
		t.Error("zero-length payload should be nil")
	}
	if p := g.Payload(1, 8); len(p) != 1 {
		t.Error("single-byte payload wrong length")
	}
	// A 2-byte payload can express at most 1 bit/byte.
	p := g.Payload(2, 8)
	if h := Shannon(p); h > 1+1e-9 {
		t.Errorf("2-byte payload entropy %v > 1", h)
	}
}

func TestGeneratorClamping(t *testing.T) {
	g := NewGenerator(5)
	if h := Shannon(g.Payload(500, -3)); h != 0 {
		t.Errorf("negative target gave entropy %v, want 0", h)
	}
	if h := Shannon(g.Payload(500, 100)); h < 7 {
		t.Errorf("over-8 target gave entropy %v, want near 8", h)
	}
}

// TestRandomIsHighEntropy sanity-checks the uniform generator.
func TestRandomIsHighEntropy(t *testing.T) {
	g := NewGenerator(6)
	if h := Shannon(g.Random(4096)); h < 7.8 {
		t.Errorf("uniform random entropy %v, want >= 7.8", h)
	}
}

func TestDeterminism(t *testing.T) {
	a := NewGenerator(42).Payload(256, 6)
	b := NewGenerator(42).Payload(256, 6)
	if string(a) != string(b) {
		t.Error("same seed produced different payloads")
	}
}

func BenchmarkShannon(b *testing.B) {
	g := NewGenerator(7)
	p := g.Random(1500)
	b.SetBytes(int64(len(p)))
	for i := 0; i < b.N; i++ {
		Shannon(p)
	}
}

// TestShannonMatchesDirectFormula checks the table-driven fast path
// against the textbook -Σ p·log2(p) formula, including payloads larger
// than the c·log2(c) table.
func TestShannonMatchesDirectFormula(t *testing.T) {
	direct := func(b []byte) float64 {
		if len(b) == 0 {
			return 0
		}
		var counts [256]int
		for _, c := range b {
			counts[c]++
		}
		n := float64(len(b))
		h := 0.0
		for _, c := range counts {
			if c == 0 {
				continue
			}
			p := float64(c) / n
			h -= p * math.Log2(p)
		}
		return h
	}
	g := NewGenerator(23)
	for _, n := range []int{1, 2, 7, 64, 221, 1000, 1500, log2TableSize - 1, log2TableSize, 3 * log2TableSize} {
		for _, target := range []float64{0.5, 3, 6, 8} {
			b := g.Payload(n, target)
			got, want := Shannon(b), direct(b)
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("n=%d target=%.1f: table Shannon %v, direct %v", n, target, got, want)
			}
		}
	}
}

// referencePayload is the library-call formulation of Generator.Payload,
// through math/rand's Perm and Shuffle. Payload must consume exactly
// these draws and return exactly these bytes: every pinned sink result
// depends on it.
func referencePayload(rng *rand.Rand, n int, target float64) []byte {
	if n <= 0 {
		return nil
	}
	if target < 0 {
		target = 0
	}
	if target > 8 {
		target = 8
	}
	if maxH := math.Log2(float64(n)); target > maxH {
		target = maxH
	}
	k := int(math.Pow(2, target))
	if k < 1 {
		k = 1
	}
	if k > 255 {
		k = 255
	}
	counts := referenceBestCounts(n, k, target)

	alphabet := rng.Perm(256)[:len(counts)]
	sort.Ints(alphabet)
	out := make([]byte, 0, n)
	for i, c := range counts {
		for j := 0; j < c; j++ {
			out = append(out, byte(alphabet[i]))
		}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func referenceBestCounts(n, k int, target float64) []int {
	build := func(c int) []int {
		counts := make([]int, k+1)
		rest := n - c
		for i := 0; i < k; i++ {
			counts[i] = rest / k
			if i < rest%k {
				counts[i]++
			}
		}
		counts[k] = c
		return counts
	}
	lo, hi := 0, n/(k+1)
	bestC, bestErr := 0, math.Inf(1)
	for lo <= hi {
		mid := (lo + hi) / 2
		h := referenceEntropyOfCounts(build(mid), n)
		if e := math.Abs(h - target); e < bestErr {
			bestC, bestErr = mid, e
		}
		if h < target {
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return build(bestC)
}

func referenceEntropyOfCounts(counts []int, n int) float64 {
	h := 0.0
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / float64(n)
		h -= p * math.Log2(p)
	}
	return h
}

// payloadMatchesReference runs Payload and referencePayload in lockstep
// from the same seed and fails on the first difference in bytes or in
// the RNG state left behind.
func payloadMatchesReference(t testing.TB, g, ref *Generator, n int, target float64) {
	t.Helper()
	got, want := g.Payload(n, target), referencePayload(ref.rng, n, target)
	if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
		t.Fatalf("Payload(%d, %v): bytes differ from the math/rand reference", n, target)
	}
	if a, b := g.rng.Int63(), ref.rng.Int63(); a != b {
		t.Fatalf("Payload(%d, %v): RNG state differs afterwards (%d vs %d)", n, target, a, b)
	}
}

// TestPayloadMatchesMathRand pins Payload draw for draw to the
// Perm/Shuffle reference over 100k random calls plus the edges: the
// shortest payloads, every clamp, payloads past the c·log2(c) table, and
// non-finite targets.
func TestPayloadMatchesMathRand(t *testing.T) {
	const seeds, perSeed = 200, 500
	for seed := int64(1); seed <= seeds; seed++ {
		g, ref := NewGenerator(seed), NewGenerator(seed)
		args := rand.New(rand.NewSource(-seed))
		for i := 0; i < perSeed; i++ {
			payloadMatchesReference(t, g, ref, 1+args.Intn(2500), -0.5+9*args.Float64())
		}
	}
	g, ref := NewGenerator(99), NewGenerator(99)
	for _, n := range []int{-1, 0, 1, 2, 3, 255, 256, 257, 511, 4096, 4097, 12000} {
		for _, target := range []float64{
			-3, 0, 0.5, 1, math.Log2(float64(n)) + 0.5, // past log2(n)
			7.99, 7.999, 8, 8.5, 100, // k = 255 clamp and target > 8
			math.NaN(), math.Inf(1), math.Inf(-1),
		} {
			payloadMatchesReference(t, g, ref, n, target)
		}
	}
}

// FuzzPayloadMatchesMathRand extends TestPayloadMatchesMathRand to
// arbitrary seeds, lengths and targets.
func FuzzPayloadMatchesMathRand(f *testing.F) {
	f.Add(int64(1), 1, 8.0)
	f.Add(int64(2), 1000, 3.3)
	f.Add(int64(3), 5000, 7.995)
	f.Add(int64(4), 2, math.NaN())
	f.Add(int64(5), 0, math.Inf(1))
	f.Fuzz(func(t *testing.T, seed int64, n int, target float64) {
		n %= 1 << 14
		payloadMatchesReference(t, NewGenerator(seed), NewGenerator(seed), n, target)
	})
}
