package sim

import "fmt"

// Windowed parallel execution: the determinism argument.
//
// The window driver (RunOptimistic, optimistic.go) exploits the structure of
// a multicomputer simulation: every cross-lane (cross-node) effect is
// scheduled at least `lookahead` ahead of the scheduling lane's clock — for
// our machine model, the minimum wire latency. Within the virtual-time
// window [T, T+lookahead), where T is the globally earliest pending event,
// each lane's events depend only on state already queued on that lane, so
// the lanes can fire concurrently on a worker pool. At the window barrier
// the engine replays the window's global (time, seq) firing order over the
// per-lane birth logs to assign final sequence numbers exactly as the
// sequential engine would have, then pushes cross-lane births and advances
// to the next window. A lookahead-width window is the conservative case;
// optimistic.go extends it to wider, speculative windows.
//
// Determinism argument, in brief:
//
//  1. Window closure. Active lanes are those whose head event is < T +
//     lookahead. Any event a lane schedules onto another lane lands at >=
//     lane-now + lookahead >= T + lookahead, i.e. outside the window, so no
//     lane can receive work from another lane inside the window.
//  2. Lane-local order. Same-lane births with an in-window timestamp are
//     inserted immediately with a provisional sequence number provBase+1+
//     birthIndex. Pre-window events carry final sequence numbers <=
//     provBase, so they order before all births (as they would
//     sequentially), and births order among themselves by birth index —
//     which is exactly the order the barrier later assigns their final
//     numbers in. The provisional keys therefore sort the lane identically
//     to the final keys.
//  3. Sequence replay. The sequential engine assigns sequence numbers at
//     Schedule time, i.e. in the global (time, seq) firing order of the
//     scheduling events. The barrier merges the per-lane logs of
//     events-that-scheduled-children by (time, final seq) — resolving a
//     window-born parent's own number through its birth record, which is
//     always already assigned because its parent appears earlier in the
//     same lane's log — and numbers children in birth order, reproducing
//     the sequential assignment exactly.
//
// Event callbacks run on worker goroutines and must only touch state owned
// by their lane; Engine.Now, Engine.Stop and Engine.Schedule (lane 0) are
// not safe from inside a window — use LaneNow and the *On scheduling
// variants.

// maxTime is the largest representable virtual time.
const maxTime = Time(1<<63 - 1)

// errEventLimit is the shared event-limit error of every runner.
func errEventLimit(limit uint64, at Time) error {
	return fmt.Errorf("sim: event limit %d exceeded at t=%v", limit, at)
}

// barrier finishes a window: it replays the global firing order over the
// per-lane logs to assign final sequence numbers to every birth, pushes
// unconsumed births into their destination lanes, folds the per-lane fired
// counts and clocks into the engine, and rebuilds the tournament.
func (e *Engine) barrier(active []int32) (uint64, error) {
	if cap(e.heads) < len(active) {
		e.heads = make([]int, len(active))
	}
	heads := e.heads[:len(active)]
	for i := range heads {
		heads[i] = 0
	}
	for {
		best := -1
		var bAt Time
		var bSeq uint64
		for i, l := range active {
			ln := &e.lanes[l]
			if heads[i] >= len(ln.log) {
				continue
			}
			r := &ln.log[heads[i]]
			s := r.seq
			if r.bref >= 0 {
				s = ln.births[r.bref].seq
			}
			if best < 0 || r.at < bAt || (r.at == bAt && s < bSeq) {
				best, bAt, bSeq = i, r.at, s
			}
		}
		if best < 0 {
			break
		}
		ln := &e.lanes[active[best]]
		r := &ln.log[heads[best]]
		heads[best]++
		for k := r.kidStart; k < r.kidEnd; k++ {
			e.seq++
			ln.births[k].seq = e.seq
		}
	}
	var fired uint64
	for _, l := range active {
		ln := &e.lanes[l]
		for i := range ln.births {
			b := &ln.births[i]
			if !b.consumed {
				e.lanes[b.dst].push(event{at: b.at, seq: b.seq, kind: b.kind, fn: b.fn, arg: b.arg})
			}
			ln.births[i] = birth{}
		}
		ln.births = ln.births[:0]
		ln.log = ln.log[:0]
		fired += ln.winFired
		ln.winFired = 0
		if ln.now > e.now {
			e.now = ln.now
		}
	}
	e.fired += fired
	e.orderRebuild()
	if e.limitHit.Load() || (e.limit != 0 && e.fired > e.limit) {
		return fired, errEventLimit(e.limit, e.now)
	}
	return fired, nil
}
