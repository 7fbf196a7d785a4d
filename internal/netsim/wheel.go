package netsim

import (
	"math"
	"math/bits"
	"time"

	"sslab/internal/metrics"
)

// The wheel geometry: three levels of 256 slots each over a 1-second
// level-0 tick, so the levels span ~4 minutes, ~18 hours and ~194 days —
// enough that a multi-month experiment never overflows (and anything
// beyond the top level falls back to the Sim heap, which is always
// correct, just not O(1)).
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	wheelWords  = wheelSlots / 64
	// wheelTick is the level-0 slot width in clock units (ns).
	wheelTick = int64(time.Second)
)

// wentry is one deferred callback parked in the wheel. It carries the
// exact target time, so parking in a coarse slot never quantizes
// delivery: entries are handed to the Sim heap with their original at.
type wentry struct {
	at   int64 // ns since Epoch
	seq  uint64
	call func(any)
	arg  any
}

// anchorArg carries one anchor wake-up through the closure-free
// netsim.AtCall path; recycled via Wheel.anchorFree.
type anchorArg struct {
	w    *Wheel
	tick int64
}

// Wheel is a hierarchical timing wheel layered in front of a Sim's
// event heap. The heap is O(log n) per operation with n live events; a
// population-scale workload keeping 10⁵–10⁶ timers outstanding would
// pay that on every schedule. The wheel parks far-future callbacks in
// power-of-256 tick buckets (O(1) insert), cascades them toward level 0
// as virtual time approaches (each entry moves at most wheelLevels
// times), and releases them into the Sim heap only when they are due —
// so the heap holds just the imminent horizon and the per-event cost is
// O(1) amortized.
//
// Contract:
//   - Delivery is exact-time: entries fire at precisely the Schedule
//     time (wheel slots only defer *when the heap learns about them*).
//   - Entries with equal target times dispatch in Schedule order.
//   - The wheel is single-threaded and deterministic: given the same
//     schedule sequence it produces the same dispatch sequence, so it
//     is safe anywhere the Sim heap is.
//   - Steady state is allocation-free: slot slices and anchor args are
//     pooled, and arg is a caller-owned pointer (no boxing).
//
// The wheel wakes itself with "anchor" events on the Sim heap, one per
// occupied-slot boundary. Each level's cursor is the current tick
// shifted down to that level, so an anchor at tick cur pours at most the
// one slot per level under the cursor and re-arms from a circular
// bitmap search: O(levels) per anchor, independent of how many slots
// are occupied. The Sim cannot cancel events, so superseded anchors
// simply fire as no-ops (advance finds nothing due).
type Wheel struct {
	sim *Sim

	slots [wheelLevels][wheelSlots][]wentry
	occ   [wheelLevels][wheelWords]uint64

	count int
	seq   uint64

	// armed is the earliest outstanding anchor tick (math.MaxInt64 when
	// none). Later anchors may also be outstanding; they fire as no-ops.
	armed      int64
	anchorFree []*anchorArg

	mScheduled *metrics.Counter
	mDirect    *metrics.Counter
	mCascaded  *metrics.Counter
	mAnchors   *metrics.Counter
}

// NewWheel attaches a timing wheel with a 1-second level-0 tick to sim.
func NewWheel(sim *Sim) *Wheel {
	w := &Wheel{sim: sim, armed: math.MaxInt64}
	w.mScheduled = sim.Metrics.Counter("wheel.scheduled")
	w.mDirect = sim.Metrics.Counter("wheel.direct")
	w.mCascaded = sim.Metrics.Counter("wheel.cascaded")
	w.mAnchors = sim.Metrics.Counter("wheel.anchors")
	return w
}

// Len returns the number of entries parked in the wheel (excluding
// those already released to the Sim heap).
func (w *Wheel) Len() int { return w.count }

// Schedule parks call(arg) for dispatch at absolute time at (clamped to
// now if in the past). It is the wheel counterpart of Sim.AtCall and
// shares its closure-free contract: arg should be a long-lived pointer.
//
//sslab:hotpath
func (w *Wheel) Schedule(at time.Time, call func(any), arg any) {
	w.mScheduled.Inc()
	w.seq++
	w.place(wentry{at: clockOf(at), seq: w.seq, call: call, arg: arg})
}

// place files e into the level whose span covers its remaining delay.
// Entries due within one tick (or in the past, or beyond the top
// level's span) bypass the wheel entirely.
//
//sslab:hotpath
func (w *Wheel) place(e wentry) {
	T := e.at / wheelTick
	delta := T - w.sim.now/wheelTick
	if delta < 1 || delta >= wheelSlots<<(wheelBits*(wheelLevels-1)) {
		w.mDirect.Inc()
		w.sim.push(event{at: e.at, call: e.call, arg: e.arg})
		return
	}
	level := 0
	for delta >= wheelSlots<<(wheelBits*level) {
		level++
	}
	shift := wheelBits * level
	slot := int(T>>shift) & wheelMask
	w.slots[level][slot] = append(w.slots[level][slot], e) //sslab:allow-hotpath slot backing arrays are retained by pour (list[:0]) and stop growing at steady state
	w.occ[level][slot>>6] |= 1 << (slot & 63)
	w.count++
	// A level-l slot is due at its start boundary (the entry's own tick
	// at level 0), where its contents cascade down.
	w.arm(T >> shift << shift)
}

// arm schedules an anchor wake-up at tick d unless an earlier (or
// equal) anchor is already outstanding.
//
//sslab:hotpath
func (w *Wheel) arm(d int64) {
	if d >= w.armed {
		return
	}
	w.armed = d
	var a *anchorArg
	if n := len(w.anchorFree); n > 0 {
		a = w.anchorFree[n-1]
		w.anchorFree = w.anchorFree[:n-1]
		a.w, a.tick = w, d
	} else {
		a = &anchorArg{w: w, tick: d}
	}
	w.mAnchors.Inc()
	w.sim.push(event{at: d * wheelTick, call: runWheelAnchor, arg: a})
}

// runWheelAnchor is the netsim.AtCall trampoline for anchor wake-ups.
//
//sslab:hotpath
func runWheelAnchor(x any) {
	a := x.(*anchorArg)
	w, k := a.w, a.tick
	a.w = nil
	w.anchorFree = append(w.anchorFree, a)
	if k == w.armed {
		w.armed = math.MaxInt64
	}
	w.advance()
}

// advance runs at an anchor, when the clock sits exactly on tick cur.
// Every slot due before cur was poured by an earlier anchor, so the only
// slot a level can owe is the one under its cursor, and only when cur is
// on that level's boundary. advance pours those (releasing level-0
// entries to the Sim heap, cascading higher levels downward), then
// re-arms for the earliest occupied boundary ahead of the cursors.
//
// Between anchors, level l's occupied slots hold entries whose tick
// k = T>>(8l) lies in [(cur>>8l)+1, (cur>>8l)+256], so a slot's index
// alone fixes its k: nothing here reads an entry.
//
//sslab:hotpath
func (w *Wheel) advance() {
	cur := w.sim.now / wheelTick
	// Highest level first: a cascade at cur files entries into lower
	// levels strictly after cur, never into a slot due now.
	for l := wheelLevels - 1; l >= 0; l-- {
		shift := wheelBits * l
		if cur&(1<<shift-1) != 0 {
			continue
		}
		if slot := int(cur>>shift) & wheelMask; w.occ[l][slot>>6]&(1<<(slot&63)) != 0 {
			w.pour(l, slot)
		}
	}
	due := int64(math.MaxInt64)
	for l := 0; l < wheelLevels; l++ {
		shift := wheelBits * l
		base := cur>>shift + 1
		if off := w.nextOccupied(l, int(base)&wheelMask); off >= 0 {
			if d := (base + int64(off)) << shift; d < due {
				due = d
			}
		}
	}
	if due != math.MaxInt64 {
		w.arm(due)
	}
}

// nextOccupied returns the distance, in slots, from start to level l's
// first occupied slot, searching circularly (start itself included,
// start-1 last); -1 if the level is empty.
func (w *Wheel) nextOccupied(l, start int) int {
	occ := &w.occ[l]
	wd, bit := start>>6, start&63
	if b := occ[wd] >> bit; b != 0 {
		return bits.TrailingZeros64(b)
	}
	for i := 1; i <= wheelWords; i++ {
		b := occ[(wd+i)&(wheelWords-1)]
		if i == wheelWords {
			b &= 1<<bit - 1 // back at start's own word: only the slots before it
		}
		if b != 0 {
			return i*64 - bit + bits.TrailingZeros64(b)
		}
	}
	return -1
}

// pour empties one slot: level 0 releases entries to the Sim heap in
// (at, Schedule-order) order; higher levels re-place entries one level
// down (or directly onto the heap if now imminent).
//
//sslab:hotpath
func (w *Wheel) pour(level, slot int) {
	list := w.slots[level][slot]
	w.slots[level][slot] = list[:0]
	w.occ[level][slot>>6] &^= 1 << (slot & 63)
	if level == 0 {
		sortEntries(list)
		for i := range list {
			w.count--
			w.sim.push(event{at: list[i].at, call: list[i].call, arg: list[i].arg})
		}
	} else {
		w.mCascaded.Add(int64(len(list)))
		for i := range list {
			w.count--
			w.place(list[i])
		}
	}
	// Drop callback/arg references held by the retained backing array.
	for i := range list {
		list[i] = wentry{}
	}
}

// sortEntries insertion-sorts a slot by (at, seq). Slots are small and
// near-sorted (append order is Schedule order), so this is cheap and
// allocation-free; it makes equal-time dispatch order equal Schedule
// order even when entries reached the slot through different levels.
//
//sslab:hotpath
func sortEntries(list []wentry) {
	for i := 1; i < len(list); i++ {
		e := list[i]
		j := i - 1
		for j >= 0 && (list[j].at > e.at || (list[j].at == e.at && list[j].seq > e.seq)) {
			list[j+1] = list[j]
			j--
		}
		list[j+1] = e
	}
}
