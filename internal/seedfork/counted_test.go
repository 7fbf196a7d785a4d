package seedfork

import (
	"bytes"
	"math/rand"
	"testing"
)

// lockstep drives a CountedSource and a math/rand generator with the
// same seed through one call sequence, read from ops, and fails at the
// first differing value. Each op byte picks a call kind and an
// argument; the moduli cover powers of two, small and large
// non-powers (whose rejection threshold matters) and the Int63n path
// of Intn. Reads exercise every leftover/bulk split of ByteReader.
// After each op it also checks that Skip from a fresh source lands on
// the same stream position.
func lockstep(t *testing.T, seed int64, ops []byte) {
	t.Helper()
	moduli := []int64{1, 2, 3, 20, 64, 360, 740, 1<<30 + 1, 1<<31 - 1, 3 << 29}
	ref := rand.New(rand.NewSource(seed))
	c := NewCountedSource(seed)
	var rd ByteReader
	var want, got []byte
	for i, op := range ops {
		n := moduli[int(op>>3)%len(moduli)]
		switch op & 7 {
		case 0:
			if w, g := ref.Uint64(), c.Uint64(); w != g {
				t.Fatalf("seed %d op %d Uint64: %d, want %d", seed, i, g, w)
			}
		case 1:
			if w, g := ref.Int63(), c.Int63(); w != g {
				t.Fatalf("seed %d op %d Int63: %d, want %d", seed, i, g, w)
			}
		case 2:
			if w, g := ref.Int31n(int32(n)), c.Int31n(int32(n)); w != g {
				t.Fatalf("seed %d op %d Int31n(%d): %d, want %d", seed, i, int32(n), g, w)
			}
		case 3:
			if w, g := ref.Intn(int(n)), c.Intn(int(n)); w != g {
				t.Fatalf("seed %d op %d Intn(%d): %d, want %d", seed, i, n, g, w)
			}
		case 4:
			n <<= 31 // past Int31n's range: Intn takes the Int63n path
			if w, g := ref.Intn(int(n)), c.Intn(int(n)); w != g {
				t.Fatalf("seed %d op %d Intn(%d): %d, want %d", seed, i, n, g, w)
			}
		case 5:
			if w, g := ref.Int63n(n), c.int63n(n); w != g {
				t.Fatalf("seed %d op %d int63n(%d): %d, want %d", seed, i, n, g, w)
			}
		default:
			k := int(op) % 41
			want, got = want[:0], got[:0]
			want = append(want, make([]byte, k)...)
			got = append(got, make([]byte, k)...)
			ref.Read(want)
			rd.Read(c, got)
			if !bytes.Equal(want, got) {
				t.Fatalf("seed %d op %d Read(%d): %x, want %x", seed, i, k, got, want)
			}
		}
		if i%17 == 0 {
			s := NewCountedSource(seed)
			s.Skip(c.Draws())
			if s.Draws() != c.Draws() || s.Uint64() != c.Uint64() {
				t.Fatalf("seed %d op %d: Skip(%d) from a fresh source lands elsewhere", seed, i, c.Draws()-1)
			}
			ref.Uint64()
		}
	}
}

// TestCountedSourceMatchesMathRand pins the contract every golden
// rests on: the counted source, its reductions and its byte reader
// replay rand.New(rand.NewSource(seed)) draw for draw, for seeds that
// exercise math/rand's seed folding (zero, negative, past 2^31-1).
func TestCountedSourceMatchesMathRand(t *testing.T) {
	ops := make([]byte, 5000)
	rand.New(rand.NewSource(1)).Read(ops)
	for _, seed := range []int64{0, 1, -1, 7, 89482311, 1<<31 - 1, -(1 << 40), 1<<63 - 1, -1 << 63} {
		lockstep(t, seed, ops)
	}
}

// TestCountedSourceDraws checks the counter every snapshot stores:
// each Uint64/Int63 is one draw, Skip advances it, and Seed resets.
func TestCountedSourceDraws(t *testing.T) {
	c := NewCountedSource(3)
	c.Uint64()
	c.Int63()
	if c.Draws() != 2 {
		t.Fatalf("Draws = %d after two draws", c.Draws())
	}
	c.Skip(5000)
	if c.Draws() != 5002 {
		t.Fatalf("Draws = %d after Skip(5000)", c.Draws())
	}
	ref := rand.New(rand.NewSource(3))
	for i := 0; i < 5002; i++ {
		ref.Uint64()
	}
	if w, g := ref.Uint64(), c.Uint64(); w != g {
		t.Fatalf("after Skip: %d, want %d", g, w)
	}
	c.Seed(3)
	if c.Draws() != 0 || c.Uint64() != rand.NewSource(3).(rand.Source64).Uint64() {
		t.Fatal("Seed did not reset the stream and counter")
	}
}

func TestCountedSourceRejectsBadBounds(t *testing.T) {
	c := NewCountedSource(1)
	for name, f := range map[string]func(){
		"Int31n(0)":  func() { c.Int31n(0) },
		"Int31n(-3)": func() { c.Int31n(-3) },
		"Intn(0)":    func() { c.Intn(0) },
		"int63n(-1)": func() { c.int63n(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzCountedSourceMatchesMathRand extends the lockstep test to
// arbitrary seeds and call sequences.
func FuzzCountedSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(int64(0), []byte{2, 10, 18, 26, 255, 254, 253})
	f.Add(int64(-5), []byte{7, 15, 23, 31, 39, 47, 55})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		lockstep(t, seed, ops)
	})
}
