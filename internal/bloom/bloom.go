// Package bloom implements the Bloom filter Shadowsocks-libev uses (as
// "ppbloom") to remember the IVs and salts of past connections, the basis
// of its replay defense analyzed in §5.3 of the paper.
//
// Like ppbloom, the filter is a ping-pong pair of sub-filters so that it
// can run forever in bounded memory: once the active sub-filter reaches its
// capacity, insertion switches to the other one and the old one is cleared
// after the new one also fills. A consequence — exploited conceptually by
// long-delay replays (Figure 7 shows replays after 570 hours) — is that
// sufficiently old entries are eventually forgotten.
package bloom

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

// Filter is a single Bloom filter with double-hashing (Kirsch–Mitzenmacher)
// index derivation.
type Filter struct {
	// bits is allocated by the first Add: a population-scale fleet
	// builds one ping-pong pair per server, and most second generations
	// are never written.
	bits    []uint64
	nbits   uint64
	k       int
	entries int
	cap     int
}

// New creates a Bloom filter sized for capacity entries at the given
// false-positive rate.
func New(capacity int, fpRate float64) *Filter {
	if capacity < 1 {
		capacity = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 1e-6
	}
	m := uint64(math.Ceil(-float64(capacity) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(capacity) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return &Filter{nbits: m, k: k, cap: capacity}
}

// alloc gives the filter its all-zero bit array.
func (f *Filter) alloc() {
	f.bits = make([]uint64, (f.nbits+63)/64)
}

// indexes derives the k bit positions for data via two FNV-1a hashes.
func (f *Filter) indexes(data []byte, idx []uint64) []uint64 {
	h1 := fnv.New64a()
	h1.Write(data)
	a := h1.Sum64()

	h2 := fnv.New64a()
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], a)
	h2.Write(seed[:])
	h2.Write(data)
	b := h2.Sum64() | 1 // force odd so the stride cycles

	idx = idx[:0]
	for i := 0; i < f.k; i++ {
		idx = append(idx, (a+uint64(i)*b)%f.nbits)
	}
	return idx
}

// Add inserts data into the filter.
func (f *Filter) Add(data []byte) {
	if f.bits == nil {
		f.alloc()
	}
	var scratch [16]uint64
	for _, i := range f.indexes(data, scratch[:0]) {
		f.bits[i/64] |= 1 << (i % 64)
	}
	f.entries++
}

// Test reports whether data may have been added (with the configured
// false-positive probability) — false means definitely never added.
func (f *Filter) Test(data []byte) bool {
	if f.bits == nil {
		return false // nothing was ever added
	}
	var scratch [16]uint64
	for _, i := range f.indexes(data, scratch[:0]) {
		if f.bits[i/64]&(1<<(i%64)) == 0 {
			return false
		}
	}
	return true
}

// Len returns the number of entries added since creation or the last Reset.
func (f *Filter) Len() int { return f.entries }

// Cap returns the design capacity.
func (f *Filter) Cap() int { return f.cap }

// Reset clears the filter. It is a no-op on a filter never added to.
func (f *Filter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.entries = 0
}

// PingPong is the two-generation wrapper (ppbloom). Insertions go to the
// current generation; lookups consult both. When the current generation
// fills, the stale one is cleared and becomes current.
type PingPong struct {
	gen     [2]*Filter
	current int
}

// NewPingPong creates a ping-pong filter pair, each generation sized for
// capacity entries.
func NewPingPong(capacity int, fpRate float64) *PingPong {
	return &PingPong{gen: [2]*Filter{New(capacity, fpRate), New(capacity, fpRate)}}
}

// Add inserts data, rotating generations when the current one is full.
func (p *PingPong) Add(data []byte) {
	cur := p.gen[p.current]
	if cur.Len() >= cur.Cap() {
		p.current = 1 - p.current
		p.gen[p.current].Reset()
		cur = p.gen[p.current]
	}
	cur.Add(data)
}

// Test reports whether data may be present in either generation.
func (p *PingPong) Test(data []byte) bool {
	return p.gen[0].Test(data) || p.gen[1].Test(data)
}

// TestAndAdd atomically tests then adds; it returns the pre-add Test result.
// This is the exact operation a replay filter needs per connection.
func (p *PingPong) TestAndAdd(data []byte) bool {
	seen := p.Test(data)
	if !seen {
		p.Add(data)
	}
	return seen
}

// Len returns the total live entries across generations.
func (p *PingPong) Len() int { return p.gen[0].Len() + p.gen[1].Len() }
