package bloom

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func key(i int) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

// TestNoFalseNegatives is the defining Bloom filter property: everything
// added must test positive.
func TestNoFalseNegatives(t *testing.T) {
	f := New(10000, 1e-6)
	for i := 0; i < 10000; i++ {
		f.Add(key(i))
	}
	for i := 0; i < 10000; i++ {
		if !f.Test(key(i)) {
			t.Fatalf("false negative for entry %d", i)
		}
	}
}

// TestFalsePositiveRate checks the observed FP rate is within ~4x of the
// configured rate at design capacity.
func TestFalsePositiveRate(t *testing.T) {
	const capacity, rate = 20000, 1e-3
	f := New(capacity, rate)
	for i := 0; i < capacity; i++ {
		f.Add(key(i))
	}
	fp := 0
	const trials = 100000
	for i := 0; i < trials; i++ {
		if f.Test(key(capacity + i)) {
			fp++
		}
	}
	observed := float64(fp) / trials
	if observed > 4*rate {
		t.Errorf("false positive rate %.5f, want <= %.5f", observed, 4*rate)
	}
}

func TestReset(t *testing.T) {
	f := New(100, 1e-6)
	f.Add([]byte("x"))
	if !f.Test([]byte("x")) {
		t.Fatal("entry missing before reset")
	}
	f.Reset()
	if f.Test([]byte("x")) {
		t.Error("entry survived reset")
	}
	if f.Len() != 0 {
		t.Error("Len nonzero after reset")
	}
}

func TestDegenerateParams(t *testing.T) {
	// Constructor must not panic or produce a broken filter on bad input.
	for _, f := range []*Filter{New(0, 1e-6), New(-5, 0), New(1, 2)} {
		f.Add([]byte("a"))
		if !f.Test([]byte("a")) {
			t.Error("degenerate filter lost an entry")
		}
	}
}

// TestPingPongRotation verifies that the ping-pong pair keeps recent
// entries and eventually forgets old ones — the property that makes
// long-delay replays effective against nonce-only filters (§7.2).
func TestPingPongRotation(t *testing.T) {
	p := NewPingPong(100, 1e-6)
	p.Add(key(0))
	if !p.Test(key(0)) {
		t.Fatal("fresh entry missing")
	}
	// Fill far past two generations.
	for i := 1; i <= 250; i++ {
		p.Add(key(i))
	}
	if p.Test(key(0)) {
		t.Error("entry 0 should have been forgotten after two rotations")
	}
	if !p.Test(key(250)) {
		t.Error("most recent entry missing")
	}
	if p.Len() > 200 {
		t.Errorf("live entries %d exceed two generations", p.Len())
	}
}

func TestTestAndAdd(t *testing.T) {
	p := NewPingPong(100, 1e-6)
	if p.TestAndAdd([]byte("salt1")) {
		t.Error("first sight reported as replay")
	}
	if !p.TestAndAdd([]byte("salt1")) {
		t.Error("second sight not reported as replay")
	}
}

// TestQuickNoFalseNegatives property-tests arbitrary byte strings.
func TestQuickNoFalseNegatives(t *testing.T) {
	f := New(5000, 1e-4)
	fn := func(data []byte) bool {
		f.Add(data)
		return f.Test(data)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAdd(b *testing.B) {
	f := New(1<<20, 1e-6)
	data := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(data)
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(data, uint64(i))
		f.Add(data)
	}
}

func BenchmarkTest(b *testing.B) {
	f := New(1<<20, 1e-6)
	data := make([]byte, 32)
	for i := 0; i < 1<<16; i++ {
		binary.LittleEndian.PutUint64(data, uint64(i))
		f.Add(data)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.LittleEndian.PutUint64(data, uint64(i))
		f.Test(data)
	}
}

// TestLazyMatchesEager checks lazily allocated, sparse-first filters
// against filters forced into the dense bit array up front: a random
// TestAndAdd/Reset/State→Restore sequence over small ping-pong pairs,
// where rotations reset untouched and written generations alike, gives
// the same answers and the same serialized state at every step.
func TestLazyMatchesEager(t *testing.T) {
	eager := func(p *PingPong) {
		for _, g := range p.gen {
			if g.bits == nil {
				g.promote()
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	lazy, ref := NewPingPong(50, 1e-3), NewPingPong(50, 1e-3)
	eager(ref)
	for i := 0; i < 20000; i++ {
		k := key(rng.Intn(400))
		switch op := rng.Intn(100); {
		case op < 90:
			if got, want := lazy.TestAndAdd(k), ref.TestAndAdd(k); got != want {
				t.Fatalf("step %d: TestAndAdd = %v, eager reference %v", i, got, want)
			}
		case op < 93:
			g := rng.Intn(2)
			lazy.gen[g].Reset()
			ref.gen[g].Reset()
		case op < 97:
			lazy = RestorePingPong(lazy.State())
			ref = RestorePingPong(ref.State())
			eager(ref)
		default:
			lazy, ref = NewPingPong(50, 1e-3), NewPingPong(50, 1e-3)
			eager(ref)
		}
		if got, want := lazy.Test(k), ref.Test(k); got != want || lazy.Len() != ref.Len() {
			t.Fatalf("step %d: Test = %v Len %d, eager reference %v Len %d", i, got, lazy.Len(), want, ref.Len())
		}
		if got, want := fmt.Sprint(lazy.State()), fmt.Sprint(ref.State()); got != want {
			t.Fatalf("step %d: state %s, eager reference %s", i, got, want)
		}
	}
}

// TestUntouchedFilterStaysUnallocated pins the memory saving: a filter
// that is only tested, reset and snapshotted never allocates storage.
func TestUntouchedFilterStaysUnallocated(t *testing.T) {
	f := New(1<<16, 1e-6)
	f.Test([]byte("x"))
	f.Reset()
	f = RestoreFilter(f.State())
	if heldBytes(f) != 0 {
		t.Fatal("untouched filter allocated storage")
	}
	f.Add([]byte("x"))
	if g := RestoreFilter(f.State()); heldBytes(g) == 0 || !g.Test([]byte("x")) {
		t.Fatal("restored filter lost its entry")
	}
}
