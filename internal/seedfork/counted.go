package seedfork

import (
	"encoding/binary"
	"math/rand"
)

// math/rand's source is the additive lagged-Fibonacci generator
// x_n = x_{n-607} + x_{n-273} (mod 2^64). CountedSource keeps the
// outputs in a power-of-two ring indexed by the draw count itself, so
// x_k lives in slot k&ringMask and a draw is two loads, an add and a
// store, with no cursor to wrap.
const (
	lfgLen   = 607
	lfgTap   = 273
	ringMask = 1<<10 - 1 // ring size: the smallest power of two >= lfgLen
)

// CountedSource is a draw-for-draw replica of the standard math/rand
// source with a draw counter, which is what makes an RNG stream
// position serializable: the (seed, draw count) pair identifies the
// stream state exactly, so an engine snapshot stores two integers
// instead of the internal state vector, and restore reseeds and
// fast-forwards with Skip. Every Int63 or Uint64 call advances the
// generator by exactly one step, so one counter covers any mix of
// draw kinds.
//
// The source owns the generator state instead of wrapping a
// rand.Source64, so its methods are concrete calls the compiler can
// inline into hot loops; Int31n and Intn replay rand.(*Rand)'s
// reductions exactly. DESIGN.md's "Counted source contract" states
// which call shapes stay draw-identical.
type CountedSource struct {
	// vec[k&ringMask] holds x_k for the 607 most recent outputs; n is
	// both the draw count and the index of the next output.
	vec [ringMask + 1]uint64
	n   uint64
}

// NewCountedSource returns a counted source that produces exactly the
// stream of rand.NewSource(seed).
func NewCountedSource(seed int64) *CountedSource {
	c := new(CountedSource)
	c.Seed(seed)
	return c
}

// Seed implements rand.Source, resetting the draw counter along with
// the generator state. It takes the first 607 outputs x_0..x_606 of
// rand.NewSource(seed) and solves the recurrence backwards for the
// pre-image x_{-607}..x_{-1}, so the next draw emits x_0. No copy of
// math/rand's seeding tables is needed.
func (c *CountedSource) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for k := 0; k < lfgLen; k++ {
		c.vec[k] = src.Uint64()
	}
	// x_{m-607} = x_m - x_{m-273}, for m descending: x_{m-273} is an
	// output for m >= 273 and a pre-image value solved at step m+334
	// below that; slot m still holds x_m because the pre-image written
	// into it comes from step m-417.
	for m := lfgLen - 1; m >= 0; m-- {
		c.vec[(m-lfgLen)&ringMask] = c.vec[m] - c.vec[(m-lfgTap)&ringMask]
	}
	c.n = 0
}

// Uint64 implements rand.Source64.
func (c *CountedSource) Uint64() uint64 {
	n := c.n
	x := c.vec[(n-lfgLen)&ringMask] + c.vec[(n-lfgTap)&ringMask]
	c.vec[n&ringMask] = x
	c.n = n + 1
	return x
}

// Int63 implements rand.Source.
func (c *CountedSource) Int63() int64 {
	return int64(c.Uint64() & (1<<63 - 1))
}

// Int31n returns rand.(*Rand).Int31n(n) over this stream: the top
// 31 bits v of an Int63 draw are accepted unless they fall in the
// partial bucket above the largest multiple of n below 2^31, and the
// result is v % n. math/rand masks a power of two instead, which is
// the same value from the same single draw. Int31n stays within the
// inlining budget, so a constant n compiles to a multiply. It panics
// if n <= 0.
func (c *CountedSource) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	for {
		v := int32(c.Uint64() << 1 >> 33) // Int63() >> 32
		if m := v % n; uint32(v-m+n) <= 1<<31 {
			return m
		}
	}
}

// int63n returns rand.(*Rand).Int63n(n) over this stream, the path Intn
// takes past Int31n's range. It panics if n <= 0.
func (c *CountedSource) int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 {
		return c.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := c.Int63()
	for v > max {
		v = c.Int63()
	}
	return v % n
}

// Intn returns rand.(*Rand).Intn(n) over this stream. It panics if
// n <= 0.
func (c *CountedSource) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(c.Int31n(int32(n)))
	}
	return int(c.int63n(int64(n)))
}

// Draws returns how many values have been drawn since construction (or
// the last Seed).
func (c *CountedSource) Draws() uint64 { return c.n }

// Skip fast-forwards the stream by n draws, as if n values had been
// drawn and discarded. Restore uses it to move a freshly seeded source
// to a snapshotted position: Skip(saved - Draws()).
func (c *CountedSource) Skip(n uint64) {
	for ; n > 0; n-- {
		c.Uint64()
	}
}

// ByteReader reproduces math/rand.(*Rand).Read's buffered byte
// extraction with exported, serializable state. rand.Rand keeps the
// partially consumed 64-bit value of the last Read in unexported
// fields, which would make a mid-stream snapshot unrecoverable;
// components that need snapshotting route their Read calls through a
// ByteReader over their CountedSource instead. The algorithm is
// byte-for-byte the standard library's: little-endian bytes of
// successive draws, seven per draw, with the leftover carried across
// calls.
type ByteReader struct {
	Val uint64
	Pos int8
}

// Read fills p from src exactly as math/rand.(*Rand).Read would
// (including the standard library's seven-bytes-per-draw consumption,
// inherited from the 63-bit Int63 era). It drains the carried
// leftover, then stores whole draws eight bytes at a time — each
// store's eighth byte is overwritten by the next draw or by the tail —
// and finishes the last 1–7 bytes draw by draw, so Val and Pos end
// exactly where the byte-at-a-time loop would leave them.
func (r *ByteReader) Read(src *CountedSource, p []byte) (int, error) {
	pos, val := r.Pos, r.Val
	n := 0
	for ; pos > 0 && n < len(p); n++ {
		p[n] = byte(val)
		val >>= 8
		pos--
	}
	for ; len(p)-n >= 8; n += 7 {
		binary.LittleEndian.PutUint64(p[n:], src.Uint64())
	}
	for ; n < len(p); n++ {
		if pos == 0 {
			val = src.Uint64()
			pos = 7
		}
		p[n] = byte(val)
		val >>= 8
		pos--
	}
	r.Pos, r.Val = pos, val
	return len(p), nil
}
