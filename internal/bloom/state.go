package bloom

import "math/bits"

// FilterState is a Filter's serializable state. The bit array is
// stored sparsely — (word index, word value) pairs for nonzero words —
// because snapshot-scale filters are mostly empty: a fleet server's
// replay filter is sized for a whole epoch's traffic, so dense
// serialization would cost hundreds of kilobytes per server while the
// occupied words fit in a few.
type FilterState struct {
	NBits   uint64
	K       int
	Entries int
	Cap     int
	Words   []WordState
}

// WordState is one nonzero 64-bit word of the sparse bit array.
type WordState struct {
	Index uint32
	Word  uint64
}

// State captures the filter's serializable state. A sparse filter
// emits the same sorted words the bit array would hold.
func (f *Filter) State() FilterState {
	st := FilterState{NBits: f.nbits, K: f.k, Entries: f.entries, Cap: f.cap}
	for i, w := range f.bits {
		if w != 0 {
			st.Words = append(st.Words, WordState{Index: uint32(i), Word: w})
		}
	}
	if f.used == 0 {
		return st
	}
	// The table's slots follow bit order except where a probe run
	// displaced a position past a larger one or wrapped past the end,
	// so an insertion sort of the scan is near linear.
	pos := make([]uint32, 0, f.used)
	for _, v := range f.set {
		if v == 0 {
			continue
		}
		p, j := v-1, len(pos)
		pos = append(pos, p)
		for ; j > 0 && pos[j-1] > p; j-- {
			pos[j] = pos[j-1]
		}
		pos[j] = p
	}
	st.Words = make([]WordState, 0, len(pos))
	for _, p := range pos {
		i, bit := p/64, uint64(1)<<(p%64)
		if n := len(st.Words); n > 0 && st.Words[n-1].Index == i {
			st.Words[n-1].Word |= bit
		} else {
			st.Words = append(st.Words, WordState{Index: i, Word: bit})
		}
	}
	return st
}

// RestoreFilter reconstructs a Filter from a captured state. Like New,
// it leaves the filter unallocated while no bit is set, and it rebuilds
// the sparse form when the set bits fit it. Words past the bit array
// are dropped, and a repeated word index overwrites the earlier one.
func RestoreFilter(st FilterState) *Filter {
	f := &Filter{
		nbits:   st.NBits,
		k:       st.K,
		entries: st.Entries,
		cap:     st.Cap,
	}
	words := f.words()
	ones, ascending := 0, true
	for i, w := range st.Words {
		if uint64(w.Index) < words {
			ones += bits.OnesCount64(w.Word)
		}
		if i > 0 && w.Index <= st.Words[i-1].Index {
			ascending = false
		}
	}
	if ones == 0 {
		return f
	}
	if ascending {
		f.initial(ones)
	} else {
		f.bits = make([]uint64, words)
	}
	if f.bits != nil {
		for _, w := range st.Words {
			if uint64(w.Index) < words {
				f.bits[w.Index] = w.Word
			}
		}
		return f
	}
	// Ascending positions have ascending home slots, so the table fills
	// front to back: each position goes to its home slot or just past
	// the one before, as probing would put it. Only positions pushed
	// past the end probe, wrapping to the front.
	var next uint32
	for _, w := range st.Words {
		if uint64(w.Index) >= words {
			break
		}
		for x := w.Word; x != 0; x &= x - 1 {
			pos := w.Index*64 + uint32(bits.TrailingZeros64(x))
			if i := max(f.slot(pos), next); int(i) < len(f.set) {
				f.set[i] = pos + 1
				next = i + 1
			} else {
				f.place(pos)
			}
		}
	}
	f.used = ones
	return f
}

// PingPongState is a PingPong pair's serializable state.
type PingPongState struct {
	Gen     [2]FilterState
	Current int
}

// State captures the pair's serializable state.
func (p *PingPong) State() PingPongState {
	return PingPongState{
		Gen:     [2]FilterState{p.gen[0].State(), p.gen[1].State()},
		Current: p.current,
	}
}

// RestorePingPong reconstructs a PingPong pair from a captured state.
func RestorePingPong(st PingPongState) *PingPong {
	return &PingPong{
		gen:     [2]*Filter{RestoreFilter(st.Gen[0]), RestoreFilter(st.Gen[1])},
		current: st.Current & 1,
	}
}
