package bloom

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"sslab/internal/seedfork"
)

// heldBytes is the storage a filter holds for its bits, in either form.
func heldBytes(f *Filter) int { return 8*cap(f.bits) + 4*cap(f.set) }

// sameState reports whether two captured states are equal, word for word.
func sameState(a, b FilterState) bool {
	return a.NBits == b.NBits && a.K == b.K && a.Entries == b.Entries && a.Cap == b.Cap &&
		len(a.Words) == len(b.Words) && (len(a.Words) == 0 || slices.Equal(a.Words, b.Words))
}

// lockstepKey derives a distinct 4–35 byte key for each id.
func lockstepKey(id uint64) []byte {
	b := make([]byte, 4+id%32)
	x := id*0x9E3779B97F4A7C15 + 1
	for i := range b {
		x ^= x >> 29
		x *= 0xBF58476D1CE4E5B9
		b[i] = byte(x >> 56)
	}
	binary.LittleEndian.PutUint32(b, uint32(id))
	return b
}

// lockstep drives a sparse-first ping-pong pair and a standalone filter
// beside their dense references and fails on the first divergence.
type lockstep struct {
	pp        *PingPong
	ppRef     *referencePingPong
	solo      *Filter
	soloRef   *referenceFilter
	promoted  bool // some filter went from sparse to dense on an Add
	rotations int
}

func newLockstep(capacity int, fp float64) *lockstep {
	return &lockstep{
		pp: NewPingPong(capacity, fp), ppRef: newReferencePingPong(capacity, fp),
		solo: New(capacity, fp), soloRef: newReference(capacity, fp),
	}
}

// Lockstep operations.
const (
	opTestAndAdd = iota
	opTest
	opAdd
	opSoloAdd
	opSoloTest
	opReset
	opState
	opRestore
	numOps
)

// sparse reports, per filter, whether it holds its bits in the table.
func (l *lockstep) sparse() [3]bool {
	return [3]bool{l.pp.gen[0].set != nil, l.pp.gen[1].set != nil, l.solo.set != nil}
}

func (l *lockstep) step(op int, key []byte, gen int) error {
	before, current := l.sparse(), l.pp.current
	var got, want bool
	switch op {
	case opTestAndAdd:
		got, want = l.pp.TestAndAdd(key), l.ppRef.TestAndAdd(key)
	case opTest:
		got, want = l.pp.Test(key), l.ppRef.Test(key)
	case opAdd:
		l.pp.Add(key)
		l.ppRef.Add(key)
	case opSoloAdd:
		l.solo.Add(key)
		l.soloRef.Add(key)
	case opSoloTest:
		got, want = l.solo.Test(key), l.soloRef.Test(key)
	case opReset:
		l.pp.gen[gen&1].Reset()
		l.ppRef.gen[gen&1].Reset()
		l.solo.Reset()
		l.soloRef.Reset()
	case opRestore:
		l.pp, l.ppRef = RestorePingPong(l.pp.State()), restoreReferencePingPong(l.ppRef.State())
		l.solo, l.soloRef = RestoreFilter(l.solo.State()), restoreReference(l.soloRef.State())
	}
	if got != want {
		return fmt.Errorf("op %d: answer %v, dense reference %v", op, got, want)
	}
	if l.pp.Len() != l.ppRef.Len() || l.solo.Len() != l.soloRef.Len() || l.pp.current != l.ppRef.current {
		return fmt.Errorf("op %d: Len %d/%d current %d, dense reference %d/%d current %d",
			op, l.pp.Len(), l.solo.Len(), l.pp.current, l.ppRef.Len(), l.soloRef.Len(), l.ppRef.current)
	}
	if l.pp.current != current {
		l.rotations++
	}
	after := l.sparse()
	changed := after != before
	if op != opReset && op != opRestore {
		for i := range before {
			l.promoted = l.promoted || (before[i] && !after[i])
		}
	}
	// States are compared whenever asked and whenever a filter's form
	// changed, which covers every promotion, reset and restore.
	if op == opState || changed || op == opRestore {
		return l.sameStates()
	}
	return nil
}

func (l *lockstep) sameStates() error {
	for g := range l.pp.gen {
		if got, want := l.pp.gen[g].State(), l.ppRef.gen[g].State(); !sameState(got, want) {
			return fmt.Errorf("generation %d state %v, dense reference %v", g, got, want)
		}
	}
	if got, want := l.solo.State(), l.soloRef.State(); !sameState(got, want) {
		return fmt.Errorf("standalone state %v, dense reference %v", got, want)
	}
	return nil
}

// TestSparseMatchesDense runs random operation sequences over sparse-
// first filters and the verbatim dense filter in lockstep. Each
// sequence adds past two generations' capacity, so it crosses the
// sparse→dense promotion and ping-pong rotation; every answer, every
// Len and every captured state must agree.
func TestSparseMatchesDense(t *testing.T) {
	for _, capacity := range []int{100, 364, 3664, 1 << 16} {
		for j, fp := range []float64{1e-3, 1e-6} {
			t.Run(fmt.Sprintf("cap%d/fp%g", capacity, fp), func(t *testing.T) {
				if testing.Short() && capacity > 1<<12 {
					t.Skip("two generations of 1<<16 entries; skipped with -short")
				}
				rng := rand.New(rand.NewSource(seedfork.Fork(1, "bloom.lockstep", int64(capacity), int64(j))))
				l := newLockstep(capacity, fp)
				var fresh uint64
				steps := 3*capacity + 500
				for i := 0; i < steps; i++ {
					// Mostly fresh keys; a share of replays of recent ones.
					id := fresh
					if rng.Intn(4) == 0 && fresh > 0 {
						id = fresh - 1 - uint64(rng.Int63n(int64(min(fresh, 64))))
					} else {
						fresh++
					}
					// A handful of resets, restores and state checks per
					// sequence; resets only in its first quarter, so the
					// rest fills a generation past capacity.
					op := opTestAndAdd
					switch x := rng.Intn(steps); {
					case x < 4 && i < steps/4:
						op = opReset
					case x < 8:
						op = opRestore
					case x < 16:
						op = opState
					default:
						op = []int{opTestAndAdd, opTestAndAdd, opTestAndAdd, opTestAndAdd, opTestAndAdd,
							opTestAndAdd, opTest, opAdd, opSoloAdd, opSoloTest}[rng.Intn(10)]
					}
					if err := l.step(op, lockstepKey(id), rng.Intn(2)); err != nil {
						t.Fatalf("step %d: %v", i, err)
					}
				}
				if err := l.sameStates(); err != nil {
					t.Fatalf("final: %v", err)
				}
				if !l.promoted || l.rotations == 0 {
					t.Fatalf("sequence did not cover promotion (%v) and rotation (%d)", l.promoted, l.rotations)
				}
			})
		}
	}
}

// FuzzFilterMatchesDense interprets its input as an operation sequence
// over small filters: the first byte picks capacity and false-positive
// rate, then each pair of bytes is an operation and a key id (the
// generation for a reset).
func FuzzFilterMatchesDense(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 1, 0, 1})
	f.Add([]byte{7, 0, 9, 3, 9, 4, 9, 7, 0, 6, 0, 0, 9, 5, 1, 0, 10})
	seq := []byte{4}
	for i := 0; i < 200; i++ {
		seq = append(seq, byte(i%numOps), byte(i*37))
	}
	f.Add(seq)
	capacities := []int{1, 3, 20, 100, 364}
	fps := []float64{1e-3, 1e-6, 0.3}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		c := int(data[0])
		l := newLockstep(capacities[c%len(capacities)], fps[c/len(capacities)%len(fps)])
		for i := 1; i+1 < len(data); i += 2 {
			id := uint64(data[i+1])
			if err := l.step(int(data[i])%numOps, lockstepKey(id), int(id)); err != nil {
				t.Fatalf("op at byte %d: %v", i, err)
			}
		}
		if err := l.sameStates(); err != nil {
			t.Fatalf("final: %v", err)
		}
	})
}

// TestSparseNeverLargerThanDense pins the break-even promotion: after
// every Add the filter holds no more bytes than its dense bit array
// would (⌈nbits/64⌉ words), its table holds each set bit once, it
// starts sparse where a table fits, and it ends dense once the table
// would outgrow the array.
func TestSparseNeverLargerThanDense(t *testing.T) {
	for _, capacity := range []int{100, 364, 3664, 1 << 16} {
		for _, fp := range []float64{1e-3, 1e-6} {
			f := New(capacity, fp)
			dense := 8 * int(f.words())
			for id := uint64(0); f.bits == nil; id++ {
				if id == uint64(capacity) {
					t.Fatalf("cap %d fp %g: still sparse at capacity", capacity, fp)
				}
				f.Add(lockstepKey(id))
				if id == 0 && f.set == nil {
					t.Fatalf("cap %d fp %g: first Add went dense", capacity, fp)
				}
				if held := heldBytes(f); held > dense {
					t.Fatalf("cap %d fp %g: %d bytes held after %d adds, dense array %d", capacity, fp, held, id+1, dense)
				}
				if f.set != nil {
					ones := 0
					for _, w := range f.State().Words {
						ones += bits.OnesCount64(w.Word)
					}
					if f.used != ones {
						t.Fatalf("cap %d fp %g: table holds %d positions for %d set bits", capacity, fp, f.used, ones)
					}
				}
			}
			if held := heldBytes(f); held != dense {
				t.Fatalf("cap %d fp %g: promoted filter holds %d bytes, dense array %d", capacity, fp, held, dense)
			}
			// The promotion came no earlier than break-even: the last
			// table, doubled, would have outgrown the dense array.
			f.Reset()
			if heldBytes(f) != 0 {
				t.Fatalf("cap %d fp %g: Reset kept %d bytes", capacity, fp, heldBytes(f))
			}
		}
	}
}

// TestRestoreMatchesDense restores crafted states that captured filters
// rarely produce: set bits packed at the top of the bit array, whose
// sparse table fill runs past the end and wraps to the front; word
// indices out of order or repeated; and words past the bit array. Each
// must restore to the dense reference's bits and keep matching it
// through further adds and tests.
func TestRestoreMatchesDense(t *testing.T) {
	base := New(3664, 1e-3).State()
	last := uint32((base.NBits+63)/64 - 1)
	words := func(ws ...WordState) FilterState {
		st := base
		st.Entries, st.Words = 1, ws
		return st
	}
	cases := map[string]FilterState{
		"top-packed": words(WordState{0, 5}, WordState{last - 1, ^uint64(0)}, WordState{last, ^uint64(0)}),
		"unsorted":   words(WordState{last, 1}, WordState{3, 7}, WordState{3, 8}),
		"past-end":   words(WordState{2, 1}, WordState{last + 1, 1}),
	}
	for name, st := range cases {
		l := newLockstep(3664, 1e-3)
		l.solo, l.soloRef = RestoreFilter(st), restoreReference(st)
		if name == "top-packed" && (l.solo.set == nil || !slices.ContainsFunc(l.solo.set[:8], func(v uint32) bool { return v > 64*(last-1) })) {
			t.Fatalf("%s: restore did not wrap the table", name)
		}
		if err := l.sameStates(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for id := uint64(0); id < 400; id++ {
			if err := l.step(opSoloAdd+int(id%2), lockstepKey(id/2), 0); err != nil {
				t.Fatalf("%s: key %d: %v", name, id/2, err)
			}
		}
		if err := l.sameStates(); err != nil {
			t.Fatalf("%s: after adds: %v", name, err)
		}
	}
}
