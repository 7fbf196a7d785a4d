// Package entropy provides Shannon-entropy measurement of packet payloads
// and generation of payloads with a chosen per-byte entropy — the two
// operations the paper's random-data experiments (§4.1, Table 4) are built
// on. The GFW's passive detector uses the entropy of the first data packet
// as a classification feature (Figure 9).
package entropy

import (
	"math"
	"math/bits"
	"math/rand"
)

// Shannon is the detector's innermost loop (it runs once per recorded-
// probability evaluation), so it avoids math.Log2 entirely for realistic
// packet sizes: with the identity
//
//	H = -Σ (c/n)·log2(c/n) = (n·log2(n) - Σ c·log2(c)) / n
//
// only the function c ↦ c·log2(c) is needed, and for c up to
// log2TableSize it comes from a table built once at init.
const log2TableSize = 4096

// cLog2c[c] = c·log2(c), with the c = 0 entry 0 (the limit value, which
// also lets the histogram loop skip the c == 0 branch).
var cLog2c [log2TableSize]float64

func init() {
	for i := 2; i < log2TableSize; i++ {
		cLog2c[i] = float64(i) * math.Log2(float64(i))
	}
}

func cLog2(c int) float64 {
	if c < log2TableSize {
		return cLog2c[c]
	}
	return float64(c) * math.Log2(float64(c))
}

// Shannon returns the per-byte Shannon entropy of b in bits, in [0, 8].
// An empty slice has entropy 0 by convention.
func Shannon(b []byte) float64 {
	n := len(b)
	if n == 0 {
		return 0
	}
	var counts [256]int
	for _, c := range b {
		counts[c]++
	}
	var sum float64
	if n < log2TableSize {
		// Bin counts are bounded by n, so every lookup hits the table —
		// and a zero count contributes exactly 0, no branch needed.
		for _, c := range counts {
			sum += cLog2c[c]
		}
	} else {
		for _, c := range counts {
			if c != 0 {
				sum += cLog2(c)
			}
		}
	}
	h := (cLog2(n) - sum) / float64(n)
	if h < 0 {
		return 0 // guard against float rounding on degenerate inputs
	}
	return h
}

// Generator produces payloads whose empirical per-byte entropy tracks a
// target. It works by drawing bytes from the smallest alphabet whose
// uniform distribution has at least the target entropy, then flattening
// the empirical distribution over that alphabet (for short payloads the
// empirical entropy of uniform sampling is biased low, so we assign byte
// values round-robin before shuffling).
type Generator struct {
	rng *rand.Rand
}

// NewGenerator returns a Generator seeded deterministically.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Payload returns n bytes whose Shannon entropy is close to target bits
// per byte (clamped to [0, 8] and to what length n can express: a payload
// of n bytes has entropy at most log2(n)).
func (g *Generator) Payload(n int, target float64) []byte {
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
	// A uniform alphabet of k symbols has entropy log2(k). To hit
	// fractional targets, use k = floor(2^target) equally common symbols
	// plus one rarer symbol whose count c we binary-search: empirical
	// entropy grows monotonically in c from log2(k) towards log2(k+1).
	k := int(math.Pow(2, target))
	if k < 1 {
		k = 1
	}
	if k > 255 {
		k = 255 // leave room for the partial symbol
	}
	counts := bestCounts(n, k, target)

	// Map counts onto k+1 distinct random byte values in ascending order
	// and shuffle. The draws are exactly those of rng.Perm(256) followed
	// by rng.Shuffle(n, swap), so the bytes and the RNG state afterwards
	// match that library-call formulation (pinned by
	// TestPayloadMatchesMathRand), without its slices and swap closure.
	var perm [256]uint8
	for i := 0; i < 256; i++ {
		j := g.rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = uint8(i)
	}
	var alphabet [4]uint64 // bitmap of the first k+1 permuted values
	for _, v := range perm[:k+1] {
		alphabet[v>>6] |= 1 << (v & 63)
	}
	out := make([]byte, n)
	pos, sym := 0, 0
	for w, word := range alphabet {
		for ; word != 0; word &= word - 1 {
			b := byte(w<<6 | bits.TrailingZeros64(word))
			run := out[pos : pos+counts[sym]]
			for x := range run {
				run[x] = b
			}
			pos += len(run)
			sym++
		}
	}
	// rand.Shuffle's loop for n < 2³¹; payloads are packet-sized.
	for i := n - 1; i > 0; i-- {
		j := g.int31n(int32(i + 1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// int31n is math/rand's unexported Lemire reduction, the one
// rand.Shuffle draws its indices with; it must stay a verbatim copy.
func (g *Generator) int31n(n int32) int32 {
	v := g.rng.Uint32()
	prod := uint64(v) * uint64(n)
	low := uint32(prod)
	if low < uint32(n) {
		thresh := uint32(-n) % uint32(n)
		for low < thresh {
			v = g.rng.Uint32()
			prod = uint64(v) * uint64(n)
			low = uint32(prod)
		}
	}
	return int32(prod >> 32)
}

// bestCounts returns per-symbol counts over k+1 symbols summing to n whose
// empirical entropy is as close to target as integer quantization allows.
// With c copies of the rarer symbol, the rest n-c split as evenly as
// possible over k symbols: r = (n-c)%k of them hold q+1, the others q.
func bestCounts(n, k int, target float64) [256]int {
	lo, hi := 0, n/(k+1) // at hi the distribution is uniform over k+1
	bestC, bestErr := 0, math.Inf(1)
	for lo <= hi {
		mid := (lo + hi) / 2
		h := countsEntropy(n, k, mid)
		if e := math.Abs(h - target); e < bestErr {
			bestC, bestErr = mid, e
		}
		if h < target {
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	var counts [256]int
	rest := n - bestC
	for i := 0; i < k; i++ {
		counts[i] = rest / k
		if i < rest%k {
			counts[i]++
		}
	}
	counts[k] = bestC
	return counts
}

// countsEntropy is the Shannon entropy of the counts bestCounts builds
// for c. Each term -p·log2(p) is subtracted once per nonzero count, in
// symbol order, so the float result is bit-identical to summing over the
// built counts; only the three distinct logarithms are computed.
func countsEntropy(n, k, c int) float64 {
	rest := n - c
	q, r := rest/k, rest%k
	pHi, pLo, pC := float64(q+1)/float64(n), float64(q)/float64(n), float64(c)/float64(n)
	lHi, lLo, lC := math.Log2(pHi), math.Log2(pLo), math.Log2(pC)
	h := 0.0
	for i := 0; i < r; i++ {
		h -= pHi * lHi
	}
	if q != 0 {
		for i := r; i < k; i++ {
			h -= pLo * lLo
		}
	}
	if c != 0 {
		h -= pC * lC
	}
	return h
}

// Random returns n uniformly random bytes (entropy ≈ 8 for large n) — the
// shape of Shadowsocks ciphertext and of the GFW's non-replay probes.
func (g *Generator) Random(n int) []byte {
	out := make([]byte, n)
	g.rng.Read(out)
	return out
}

// Intn exposes the generator's PRNG for callers that need correlated
// randomness (e.g. choosing a payload length and then its contents).
func (g *Generator) Intn(n int) int { return g.rng.Intn(n) }

// Float64 returns a uniform float in [0, 1).
func (g *Generator) Float64() float64 { return g.rng.Float64() }
