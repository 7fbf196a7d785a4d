package bloom

// This file keeps the dense Bloom filter verbatim as the oracle the
// sparse-until-dense Filter is checked against: same FNV-1a double
// hashing, same bit array, same ping-pong rotation and the same sparse
// (Index, Word) serialization. Only the type and function names differ.

import (
	"encoding/binary"
	"hash/fnv"
	"math"
)

type referenceFilter struct {
	// bits is allocated by the first Add: a population-scale fleet
	// builds one ping-pong pair per server, and most second generations
	// are never written.
	bits    []uint64
	nbits   uint64
	k       int
	entries int
	cap     int
}

func newReference(capacity int, fpRate float64) *referenceFilter {
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
	return &referenceFilter{nbits: m, k: k, cap: capacity}
}

// alloc gives the filter its all-zero bit array.
func (f *referenceFilter) alloc() {
	f.bits = make([]uint64, (f.nbits+63)/64)
}

// indexes derives the k bit positions for data via two FNV-1a hashes.
func (f *referenceFilter) indexes(data []byte, idx []uint64) []uint64 {
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
func (f *referenceFilter) Add(data []byte) {
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
func (f *referenceFilter) Test(data []byte) bool {
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
func (f *referenceFilter) Len() int { return f.entries }

// Cap returns the design capacity.
func (f *referenceFilter) Cap() int { return f.cap }

// Reset clears the filter. It is a no-op on a filter never added to.
func (f *referenceFilter) Reset() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.entries = 0
}

// referencePingPong is the two-generation wrapper (ppbloom).
type referencePingPong struct {
	gen     [2]*referenceFilter
	current int
}

func newReferencePingPong(capacity int, fpRate float64) *referencePingPong {
	return &referencePingPong{gen: [2]*referenceFilter{newReference(capacity, fpRate), newReference(capacity, fpRate)}}
}

// Add inserts data, rotating generations when the current one is full.
func (p *referencePingPong) Add(data []byte) {
	cur := p.gen[p.current]
	if cur.Len() >= cur.Cap() {
		p.current = 1 - p.current
		p.gen[p.current].Reset()
		cur = p.gen[p.current]
	}
	cur.Add(data)
}

// Test reports whether data may be present in either generation.
func (p *referencePingPong) Test(data []byte) bool {
	return p.gen[0].Test(data) || p.gen[1].Test(data)
}

// TestAndAdd atomically tests then adds; it returns the pre-add Test result.
func (p *referencePingPong) TestAndAdd(data []byte) bool {
	seen := p.Test(data)
	if !seen {
		p.Add(data)
	}
	return seen
}

// Len returns the total live entries across generations.
func (p *referencePingPong) Len() int { return p.gen[0].Len() + p.gen[1].Len() }

// State captures the filter's serializable state.
func (f *referenceFilter) State() FilterState {
	st := FilterState{NBits: f.nbits, K: f.k, Entries: f.entries, Cap: f.cap}
	for i, w := range f.bits {
		if w != 0 {
			st.Words = append(st.Words, WordState{Index: uint32(i), Word: w})
		}
	}
	return st
}

// restoreReference reconstructs a referenceFilter from a captured state.
func restoreReference(st FilterState) *referenceFilter {
	f := &referenceFilter{
		nbits:   st.NBits,
		k:       st.K,
		entries: st.Entries,
		cap:     st.Cap,
	}
	if st.Entries > 0 || len(st.Words) > 0 {
		f.alloc()
	}
	for _, w := range st.Words {
		if int(w.Index) < len(f.bits) {
			f.bits[w.Index] = w.Word
		}
	}
	return f
}

// State captures the pair's serializable state.
func (p *referencePingPong) State() PingPongState {
	return PingPongState{
		Gen:     [2]FilterState{p.gen[0].State(), p.gen[1].State()},
		Current: p.current,
	}
}

func restoreReferencePingPong(st PingPongState) *referencePingPong {
	return &referencePingPong{
		gen:     [2]*referenceFilter{restoreReference(st.Gen[0]), restoreReference(st.Gen[1])},
		current: st.Current & 1,
	}
}
