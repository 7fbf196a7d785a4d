package netsim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"sslab/internal/seedfork"
)

// fireLog records dispatches as (virtual time, id) pairs.
type fireLog struct {
	sim *Sim
	got []fireRec
}

type fireRec struct {
	at time.Time
	id int
}

type fireArg struct {
	log *fireLog
	id  int
}

func runFire(x any) {
	a := x.(*fireArg)
	a.log.got = append(a.log.got, fireRec{at: a.log.sim.Now(), id: a.id})
}

// TestWheelMatchesHeap schedules the same randomized timeline — unique
// times spanning all three wheel levels plus the direct paths — through
// a Wheel in one sim and directly onto the heap in another, and
// requires identical dispatch sequences. The wheel's contract is that
// it is behaviorally indistinguishable from the heap.
func TestWheelMatchesHeap(t *testing.T) {
	const n = 5000
	rng := rand.New(rand.NewSource(42))
	offsets := make([]time.Duration, n)
	for i := range offsets {
		var span time.Duration
		switch i % 4 {
		case 0: // level 0: under 256s
			span = 250 * time.Second
		case 1: // level 1: under ~18h
			span = 17 * time.Hour
		case 2: // level 2: days
			span = 40 * 24 * time.Hour
		default: // overflow: beyond the top level's span
			span = 300 * 24 * time.Hour
		}
		// Unique sub-second components make the total order unambiguous.
		offsets[i] = time.Duration(rng.Int63n(int64(span))) + time.Duration(i)*time.Nanosecond
	}

	runTimeline := func(useWheel bool) []fireRec {
		sim := NewSim()
		log := &fireLog{sim: sim}
		wheel := NewWheel(sim)
		args := make([]fireArg, n)
		for i, off := range offsets {
			args[i] = fireArg{log: log, id: i}
			if useWheel {
				wheel.Schedule(Epoch.Add(off), runFire, &args[i])
			} else {
				sim.AtCall(Epoch.Add(off), runFire, &args[i])
			}
		}
		sim.Run()
		return log.got
	}

	heap := runTimeline(false)
	viaWheel := runTimeline(true)
	if len(heap) != n || len(viaWheel) != n {
		t.Fatalf("dispatched %d (heap) / %d (wheel) events, want %d", len(heap), len(viaWheel), n)
	}
	for i := range heap {
		if heap[i] != viaWheel[i] {
			t.Fatalf("dispatch %d: heap fired (%v, id %d), wheel fired (%v, id %d)",
				i, heap[i].at, heap[i].id, viaWheel[i].at, viaWheel[i].id)
		}
	}
}

// TestWheelExactTimes verifies parking in coarse slots never quantizes
// delivery: each callback runs at precisely its Schedule time.
func TestWheelExactTimes(t *testing.T) {
	sim := NewSim()
	w := NewWheel(sim)
	log := &fireLog{sim: sim}
	offsets := []time.Duration{
		1500 * time.Millisecond,
		90*time.Second + 123*time.Millisecond,
		3*time.Hour + 7*time.Nanosecond,
		20*24*time.Hour + time.Microsecond,
	}
	args := make([]fireArg, len(offsets))
	for i, off := range offsets {
		args[i] = fireArg{log: log, id: i}
		w.Schedule(Epoch.Add(off), runFire, &args[i])
	}
	sim.Run()
	if len(log.got) != len(offsets) {
		t.Fatalf("fired %d, want %d", len(log.got), len(offsets))
	}
	for i, off := range offsets {
		if !log.got[i].at.Equal(Epoch.Add(off)) {
			t.Errorf("event %d fired at %v, want %v", i, log.got[i].at, Epoch.Add(off))
		}
	}
}

// TestWheelEqualTimeOrder pins the tie-break contract: entries with
// equal target times dispatch in Schedule order, even when they reach
// level 0 through different levels (one parked far ahead and cascaded,
// one scheduled late directly into level 0).
func TestWheelEqualTimeOrder(t *testing.T) {
	sim := NewSim()
	w := NewWheel(sim)
	log := &fireLog{sim: sim}
	target := Epoch.Add(2*time.Hour + 300*time.Millisecond)

	args := make([]fireArg, 4)
	for i := range args {
		args[i] = fireArg{log: log, id: i}
	}
	// 0 and 1 park in level 1 and cascade; then a hop to t-30s makes 2
	// and 3 level-0 placements for the same instant.
	w.Schedule(target, runFire, &args[0])
	w.Schedule(target, runFire, &args[1])
	hop := target.Add(-30 * time.Second)
	sim.At(hop, func() {
		w.Schedule(target, runFire, &args[2])
		w.Schedule(target, runFire, &args[3])
	})
	sim.Run()
	for i := range args {
		if log.got[i].id != i {
			t.Fatalf("dispatch order %v, want Schedule order 0,1,2,3", log.got)
		}
	}
}

// TestWheelSelfRescheduling compares wheel and heap under the workload
// the wheel exists for: many concurrent chains rescheduling themselves
// from inside their own callbacks.
func TestWheelSelfRescheduling(t *testing.T) {
	uniform40m := func(r *rand.Rand) time.Duration { return time.Duration(r.Int63n(int64(40 * time.Minute))) }
	compareChains(t, 60, 50, uniform40m, false)
}

// TestWheelRunUntil verifies entries beyond a RunUntil horizon stay
// parked and fire on a later resume.
func TestWheelRunUntil(t *testing.T) {
	sim := NewSim()
	w := NewWheel(sim)
	log := &fireLog{sim: sim}
	args := []fireArg{{log, 0}, {log, 1}}
	w.Schedule(Epoch.Add(time.Hour), runFire, &args[0])
	w.Schedule(Epoch.Add(48*time.Hour), runFire, &args[1])

	sim.RunUntil(Epoch.Add(24 * time.Hour))
	if len(log.got) != 1 || log.got[0].id != 0 {
		t.Fatalf("after RunUntil(24h): fired %v, want only id 0", log.got)
	}
	if w.Len() != 1 {
		t.Fatalf("wheel holds %d entries, want 1", w.Len())
	}
	sim.Run()
	if len(log.got) != 2 || log.got[1].id != 1 {
		t.Fatalf("after Run: fired %v, want ids 0,1", log.got)
	}
}

// TestWheelPastSchedules go straight to the heap, clamped like Sim.At.
func TestWheelPastSchedules(t *testing.T) {
	sim := NewSim()
	w := NewWheel(sim)
	sim.RunUntil(Epoch.Add(time.Hour))
	log := &fireLog{sim: sim}
	a := fireArg{log, 7}
	w.Schedule(Epoch.Add(time.Minute), runFire, &a) // already past
	sim.Run()
	if len(log.got) != 1 || !log.got[0].at.Equal(Epoch.Add(time.Hour)) {
		t.Fatalf("past schedule fired %v, want clamped to now", log.got)
	}
	if w.Len() != 0 {
		t.Fatalf("wheel holds %d entries, want 0", w.Len())
	}
}

// testHorizon bounds the dynamic tests' runs: far beyond every target
// they schedule, but short of the clock's range, so a wheel that loses
// an entry fails on the dispatch comparison instead of re-arming until
// the clock saturates.
var testHorizon = Epoch.Add(200 * 365 * 24 * time.Hour)

// checkCursors verifies the state advance relies on instead of reading
// entries: every parked entry sits in the slot its tick maps to, at a
// level-l tick k = T>>(8l) in [(cur>>8l)+1, (cur>>8l)+256] (or exactly
// cur>>8l while that boundary's anchor is still queued behind other
// events at the same instant), occupancy bits match the slots, and the
// earliest outstanding anchor is no later than the earliest due slot.
func checkCursors(t testing.TB, w *Wheel) {
	t.Helper()
	cur := w.sim.now / wheelTick
	onTick := w.sim.now%wheelTick == 0
	minDue, n := int64(math.MaxInt64), 0
	for l := 0; l < wheelLevels; l++ {
		shift := wheelBits * l
		for slot := 0; slot < wheelSlots; slot++ {
			list := w.slots[l][slot]
			if occupied := w.occ[l][slot>>6]&(1<<(slot&63)) != 0; occupied != (len(list) > 0) {
				t.Fatalf("level %d slot %d: occupancy bit %v with %d entries", l, slot, occupied, len(list))
			}
			for i := range list {
				k := list[i].at / wheelTick >> shift
				lo := cur>>shift + 1
				if onTick && cur&(1<<shift-1) == 0 {
					lo-- // due now; its anchor has not fired yet
				}
				if k < lo || k > cur>>shift+wheelSlots || int(k)&wheelMask != slot {
					t.Fatalf("level %d slot %d holds tick %d at cur %d", l, slot, k, cur)
				}
				if d := k << shift; d < minDue {
					minDue = d
				}
				n++
			}
		}
	}
	if n != w.count {
		t.Fatalf("slots hold %d entries, count says %d", n, w.count)
	}
	if minDue < w.armed {
		t.Fatalf("earliest due tick %d precedes the armed anchor %d", minDue, w.armed)
	}
}

// dynChain is a self-re-arming timer for the dynamic equivalence tests:
// each firing logs, optionally audits the wheel, and schedules the next
// firing through whichever scheduler (wheel or heap) it was built with.
type dynChain struct {
	log   *fireLog
	sched func(at time.Time, call func(any), arg any)
	audit *Wheel
	t     testing.TB
	rng   *rand.Rand
	gap   func(*rand.Rand) time.Duration
	id    int
	left  int
}

func runDynChain(x any) {
	c := x.(*dynChain)
	c.log.got = append(c.log.got, fireRec{at: c.log.sim.Now(), id: c.id})
	if c.audit != nil {
		checkCursors(c.t, c.audit)
	}
	if c.left == 0 {
		return
	}
	c.left--
	c.sched(c.log.sim.Now().Add(c.gap(c.rng)), runDynChain, c)
}

// sparseGap is a region-resume-shaped wake gap: exponential with a
// 30-minute mean, at nanosecond resolution so times stay unique.
func sparseGap(r *rand.Rand) time.Duration {
	return time.Duration(r.ExpFloat64() * float64(30*time.Minute))
}

// mixedGap spreads gaps over every wheel level and the direct paths:
// sub-tick, level 0, level 1, level 2 and beyond the top level.
func mixedGap(r *rand.Rand) time.Duration {
	spans := [...]time.Duration{time.Second, 250 * time.Second, 17 * time.Hour, 40 * 24 * time.Hour, 300 * 24 * time.Hour}
	return time.Duration(r.Int63n(int64(spans[r.Intn(len(spans))])))
}

// chainRun is one dynamic timeline: chains chains of hops firings each,
// started in the first minute, driven through a wheel or the heap.
type chainRun struct {
	sim    *Sim
	wheel  *Wheel
	log    *fireLog
	chains []dynChain
}

func newChainRun(t testing.TB, chains, hops int, gap func(*rand.Rand) time.Duration, useWheel, audit bool) *chainRun {
	r := &chainRun{sim: NewSim()}
	r.wheel = NewWheel(r.sim)
	r.log = &fireLog{sim: r.sim}
	sched := r.sim.AtCall
	if useWheel {
		sched = r.wheel.Schedule
	}
	r.chains = make([]dynChain, chains)
	for i := range r.chains {
		c := &r.chains[i]
		*c = dynChain{log: r.log, sched: sched, t: t, gap: gap, id: i, left: hops,
			rng: rand.New(rand.NewSource(seedfork.Fork(7, "wheel.dyn", int64(i))))}
		if useWheel && audit {
			c.audit = r.wheel
		}
		sched(Epoch.Add(time.Duration(c.rng.Int63n(int64(time.Minute)))), runDynChain, c)
	}
	return r
}

func requireSameDispatch(t *testing.T, heap, viaWheel []fireRec) {
	t.Helper()
	if len(heap) != len(viaWheel) {
		t.Fatalf("heap fired %d, wheel fired %d", len(heap), len(viaWheel))
	}
	for i := range heap {
		if heap[i] != viaWheel[i] {
			t.Fatalf("dispatch %d diverged: heap (%v, %d), wheel (%v, %d)",
				i, heap[i].at, heap[i].id, viaWheel[i].at, viaWheel[i].id)
		}
	}
}

// compareChains runs the same chain population through the heap alone
// and through a wheel (audited after every firing when audit is set) and
// requires identical dispatch sequences.
func compareChains(t *testing.T, chains, hops int, gap func(*rand.Rand) time.Duration, audit bool) {
	t.Helper()
	heap := newChainRun(t, chains, hops, gap, false, false)
	heap.sim.RunUntil(testHorizon)
	wr := newChainRun(t, chains, hops, gap, true, audit)
	wr.sim.RunUntil(testHorizon)
	requireSameDispatch(t, heap.log.got, wr.log.got)
	if wr.wheel.Len() != 0 {
		t.Fatalf("wheel still holds %d entries", wr.wheel.Len())
	}
}

// TestWheelMatchesHeapDynamic extends TestWheelMatchesHeap past
// up-front schedules: timers re-armed from inside dispatch at sparse and
// dense populations, schedules landing exactly on (and one tick either
// side of) every level's slot boundaries, and a mid-run
// PendingEntries → fresh-wheel round trip (the snapshot path). In every
// case the wheel must dispatch exactly what the heap alone dispatches.
func TestWheelMatchesHeapDynamic(t *testing.T) {
	t.Run("rearm", func(t *testing.T) {
		cases := []struct {
			name         string
			chains, hops int
			gap          func(*rand.Rand) time.Duration
			audit        bool
		}{
			{"sparse8", 8, 400, sparseGap, true},
			{"sparse200", 200, 60, sparseGap, true},
			{"mixed200", 200, 20, mixedGap, true},
			{"dense50k", 50000, 3, mixedGap, false},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) { compareChains(t, tc.chains, tc.hops, tc.gap, tc.audit) })
		}
	})

	t.Run("boundaries", func(t *testing.T) {
		// Unique targets on 1-, 256- and 65536-tick boundaries and one
		// tick either side. Half are scheduled up front; the other half
		// from hop events that themselves fire on boundaries, so entries
		// are placed while a boundary's anchor is still queued.
		seen := map[time.Duration]bool{}
		var early, late []time.Duration
		for _, span := range []int64{1, wheelSlots, wheelSlots * wheelSlots} {
			for k := int64(1); k <= 40; k++ {
				for _, d := range []int64{-1, 0, 1} {
					off := time.Duration((k*span + d) * wheelTick)
					if off <= 0 || seen[off] {
						continue
					}
					seen[off] = true
					if k%2 == 0 {
						late = append(late, off)
					} else {
						early = append(early, off)
					}
				}
			}
		}
		hops := []time.Duration{256 * time.Second, 65536 * time.Second, 3 * 65536 * time.Second}
		run := func(useWheel bool) []fireRec {
			sim := NewSim()
			w := NewWheel(sim)
			log := &fireLog{sim: sim}
			sched := sim.AtCall
			if useWheel {
				sched = w.Schedule
			}
			args := make([]fireArg, len(early)+len(late))
			for i := range args {
				args[i] = fireArg{log: log, id: i}
			}
			for i, off := range early {
				sched(Epoch.Add(off), runFire, &args[i])
			}
			for h, hop := range hops {
				sim.At(Epoch.Add(hop), func() {
					for i := h; i < len(late); i += len(hops) {
						if at := Epoch.Add(late[i]); at.After(sim.Now()) {
							sched(at, runFire, &args[len(early)+i])
						}
					}
					if useWheel {
						checkCursors(t, w)
					}
				})
			}
			sim.RunUntil(testHorizon)
			return log.got
		}
		got := run(true)
		requireSameDispatch(t, run(false), got)
		if len(got) < len(early) {
			t.Fatalf("fired %d, want at least the %d up-front targets", len(got), len(early))
		}
	})

	t.Run("roundtrip", func(t *testing.T) {
		const chains, hops = 200, 80
		heap := newChainRun(t, chains, hops, sparseGap, false, false)
		heap.sim.RunUntil(testHorizon)

		src := newChainRun(t, chains, hops, sparseGap, true, true)
		mid := Epoch.Add(7*time.Hour + 500*time.Millisecond)
		src.sim.RunUntil(mid)
		events, entries := src.sim.PendingEvents(), src.wheel.PendingEntries()
		if len(entries) == 0 {
			t.Fatal("no parked entries at the cut; the round trip is vacuous")
		}

		// A fresh sim and wheel at the cut: heap events in heap-sequence
		// order, then wheel entries in wheel-sequence order.
		sim := NewSim()
		w := NewWheel(sim)
		sim.RunUntil(mid)
		src.log.sim = sim
		for i := range src.chains {
			src.chains[i].sched, src.chains[i].audit = w.Schedule, w
		}
		for _, ev := range events {
			if !IsWheelAnchor(ev.Arg) {
				sim.AtCall(ev.At, ev.Call, ev.Arg)
			}
		}
		for _, e := range entries {
			w.Schedule(e.At, e.Call, e.Arg)
		}
		checkCursors(t, w)
		sim.RunUntil(testHorizon)
		requireSameDispatch(t, heap.log.got, src.log.got)
	})
}

// FuzzWheelMatchesHeap checks wheel/heap dispatch equivalence on
// timelines built from the fuzz bytes. Each 4-byte group is one target:
// byte 0 picks a unit (1 ms, one tick, a level-1 or a level-2 slot) and
// whether the target is scheduled up front or from a mid-run hop,
// bytes 1–2 the count of units, byte 3 a signed millisecond nudge. The
// first byte places the hop. Duplicate absolute times are dropped: the
// contract orders equal times by Schedule order, which the heap and the
// wheel only share when both saw the schedules in the same order.
func FuzzWheelMatchesHeap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 128, 2, 0, 0, 128, 7, 1, 0, 0, 3, 255, 255, 127})
	f.Add([]byte{9, 5, 1, 0, 128, 6, 0, 1, 0, 2, 2, 0, 255, 3, 0, 16, 1, 1, 255, 255, 200})
	f.Add([]byte{200, 1, 255, 0, 128, 5, 0, 1, 128, 10, 0, 2, 128, 15, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 || len(data) > 4*512+1 {
			return
		}
		units := [...]time.Duration{time.Millisecond, time.Second, 256 * time.Second, 65536 * time.Second}
		hop := time.Duration(data[0]) * 997 * time.Second
		type target struct {
			at   time.Duration
			late bool
		}
		var targets []target
		seen := map[time.Duration]bool{}
		for p := 1; p+4 <= len(data); p += 4 {
			g := data[p : p+4]
			off := time.Duration(uint16(g[1])<<8|uint16(g[2]))*units[g[0]&3] +
				time.Duration(int8(g[3]))*time.Millisecond
			late := g[0]&4 != 0
			at := off
			if late {
				at += hop
			}
			if at <= 0 || (late && at <= hop) || seen[at] {
				continue
			}
			seen[at] = true
			targets = append(targets, target{at, late})
		}
		run := func(useWheel bool) []fireRec {
			sim := NewSim()
			w := NewWheel(sim)
			log := &fireLog{sim: sim}
			sched := sim.AtCall
			if useWheel {
				sched = w.Schedule
			}
			args := make([]fireArg, len(targets))
			for i, tg := range targets {
				args[i] = fireArg{log: log, id: i}
				if !tg.late {
					sched(Epoch.Add(tg.at), runFire, &args[i])
				}
			}
			sim.At(Epoch.Add(hop), func() {
				for i, tg := range targets {
					if tg.late {
						sched(Epoch.Add(tg.at), runFire, &args[i])
					}
				}
				if useWheel {
					checkCursors(t, w)
				}
			})
			sim.RunUntil(testHorizon)
			return log.got
		}
		requireSameDispatch(t, run(false), run(true))
	})
}
