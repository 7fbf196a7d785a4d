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
//
// A filter's memory grows with what it holds, not with its capacity: the
// set bits live in a small hash table of bit positions until that table
// would outgrow the plain bit array, and only then in the bit array.
// Both forms hold exactly the same bits, so every answer and every
// captured State is the same as a bit array's from the start.
package bloom

import (
	"math"
)

// Filter is a single Bloom filter with double-hashing (Kirsch–Mitzenmacher)
// index derivation.
type Filter struct {
	// The set bits are stored in exactly one of two forms. While bits
	// is nil the filter is sparse: set is an open-addressed table of
	// set bit positions, each stored as position+1 so 0 marks an empty
	// slot, kept at load ≤ ½ and nil until the first Add. A population
	// of servers holds one ping-pong pair each, nearly all far below
	// capacity. When doubling the table would take more bytes than the
	// bit array, the filter promotes to the dense bits and drops set.
	bits    []uint64
	set     []uint32
	used    int    // occupied slots of set
	scale   uint64 // 2³²·len(set) / (64·words): see slot
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

// words is the length of the dense bit array.
func (f *Filter) words() uint64 { return (f.nbits + 63) / 64 }

// fitsSparse reports whether a table of n slots may hold the bits: every
// position of the bit array, plus one, fits a uint32 slot, and the table
// takes no more bytes than the bit array.
func (f *Filter) fitsSparse(n int) bool {
	return f.words()*64 <= math.MaxUint32 && uint64(4*n) <= 8*f.words()
}

// initial gives an empty filter room for ones set bits: the smallest
// table at load ≤ ½ that also fits one Add, or else the bit array.
func (f *Filter) initial(ones int) {
	n := 16
	for n < 2*f.k || n < 2*ones {
		n *= 2
	}
	if !f.fitsSparse(n) {
		f.bits = make([]uint64, f.words())
		return
	}
	f.table(n)
}

// table gives the sparse form an empty table of n slots.
func (f *Filter) table(n int) {
	f.set = make([]uint32, n)
	f.scale = uint64(n) << 32 / (64 * f.words())
}

// hashPair is the FNV-1a double hash of data: a over data, b over a's
// little-endian bytes followed by data, forced odd so the stride cycles.
// Bit i of an entry is (a + i·b) mod nbits.
//
//sslab:hotpath
func hashPair(data []byte) (a, b uint64) {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	a = offset64
	for _, c := range data {
		a ^= uint64(c)
		a *= prime64
	}
	b = offset64
	for s := 0; s < 64; s += 8 {
		b ^= (a >> s) & 0xff
		b *= prime64
	}
	for _, c := range data {
		b ^= uint64(c)
		b *= prime64
	}
	return a, b | 1
}

// slot is the home slot of bit position pos: pos scaled from the bit
// array's range onto the table by one multiply and shift. Bit positions
// are already uniform hashes, and the order-preserving slot leaves the
// table nearly sorted, which keeps State's sort near linear.
func (f *Filter) slot(pos uint32) uint32 { return uint32(uint64(pos) * f.scale >> 32) }

// has reports whether the sparse table holds bit position pos.
func (f *Filter) has(pos uint32) bool {
	v, mask := pos+1, uint32(len(f.set)-1)
	for i := f.slot(pos); ; i = (i + 1) & mask {
		switch f.set[i] {
		case v:
			return true
		case 0:
			return false
		}
	}
}

// place stores bit position pos, known absent, in the sparse table's
// first free slot from its home slot.
func (f *Filter) place(pos uint32) {
	mask := uint32(len(f.set) - 1)
	i := f.slot(pos)
	for f.set[i] != 0 {
		i = (i + 1) & mask
	}
	f.set[i] = pos + 1
}

// insert sets bit pos of a sparse filter, doubling the table or
// promoting to the bit array when one more position would push its
// load past ½.
func (f *Filter) insert(pos uint32) {
	v, mask := pos+1, uint32(len(f.set)-1)
	i := f.slot(pos)
	for ; f.set[i] != 0; i = (i + 1) & mask {
		if f.set[i] == v {
			return
		}
	}
	f.used++
	if 2*f.used <= len(f.set) {
		f.set[i] = v
		return
	}
	if !f.fitsSparse(2 * len(f.set)) {
		f.promote()
		f.bits[pos/64] |= 1 << (pos % 64)
		return
	}
	old := f.set
	f.table(2 * len(old))
	for _, o := range old {
		if o != 0 {
			f.place(o - 1)
		}
	}
	f.place(pos)
}

// promote moves the sparse table's bits into the dense bit array.
func (f *Filter) promote() {
	f.bits = make([]uint64, f.words())
	for _, v := range f.set {
		if v != 0 {
			p := v - 1
			f.bits[p/64] |= 1 << (p % 64)
		}
	}
	f.set, f.used = nil, 0
}

// add sets the k bits of the entry hashed to (a, b).
//
//sslab:hotpath
func (f *Filter) add(a, b uint64) {
	if f.bits == nil && f.set == nil {
		f.initial(0)
	}
	x := a
	for i := 0; i < f.k; i++ {
		p := x % f.nbits
		if f.bits != nil {
			f.bits[p/64] |= 1 << (p % 64)
		} else {
			f.insert(uint32(p))
		}
		x += b
	}
	f.entries++
}

// test reports whether all k bits of the entry hashed to (a, b) are set.
//
//sslab:hotpath
func (f *Filter) test(a, b uint64) bool {
	x := a
	if f.bits != nil {
		for i := 0; i < f.k; i++ {
			p := x % f.nbits
			if f.bits[p/64]&(1<<(p%64)) == 0 {
				return false
			}
			x += b
		}
		return true
	}
	if f.set == nil {
		return false // nothing was ever added
	}
	for i := 0; i < f.k; i++ {
		if !f.has(uint32(x % f.nbits)) {
			return false
		}
		x += b
	}
	return true
}

// Add inserts data into the filter.
//
//sslab:hotpath
func (f *Filter) Add(data []byte) {
	f.add(hashPair(data))
}

// Test reports whether data may have been added (with the configured
// false-positive probability) — false means definitely never added.
//
//sslab:hotpath
func (f *Filter) Test(data []byte) bool {
	return f.test(hashPair(data))
}

// Len returns the number of entries added since creation or the last Reset.
func (f *Filter) Len() int { return f.entries }

// Cap returns the design capacity.
func (f *Filter) Cap() int { return f.cap }

// Reset clears the filter back to its empty sparse form, releasing its
// storage.
func (f *Filter) Reset() {
	f.bits, f.set, f.used = nil, nil, 0
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

// add inserts the entry hashed to (a, b), rotating generations when the
// current one is full.
//
//sslab:hotpath
func (p *PingPong) add(a, b uint64) {
	cur := p.gen[p.current]
	if cur.Len() >= cur.Cap() {
		p.current = 1 - p.current
		p.gen[p.current].Reset()
		cur = p.gen[p.current]
	}
	cur.add(a, b)
}

// Add inserts data, rotating generations when the current one is full.
//
//sslab:hotpath
func (p *PingPong) Add(data []byte) {
	p.add(hashPair(data))
}

// Test reports whether data may be present in either generation.
//
//sslab:hotpath
func (p *PingPong) Test(data []byte) bool {
	a, b := hashPair(data)
	return p.gen[0].test(a, b) || p.gen[1].test(a, b)
}

// TestAndAdd atomically tests then adds; it returns the pre-add Test result.
// This is the exact operation a replay filter needs per connection, and
// it hashes data once for both.
//
//sslab:hotpath
func (p *PingPong) TestAndAdd(data []byte) bool {
	a, b := hashPair(data)
	if p.gen[0].test(a, b) || p.gen[1].test(a, b) {
		return true
	}
	p.add(a, b)
	return false
}

// Len returns the total live entries across generations.
func (p *PingPong) Len() int { return p.gen[0].Len() + p.gen[1].Len() }
