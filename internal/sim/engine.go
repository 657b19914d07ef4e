// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains per-lane priority queues of events ordered by virtual
// time with a monotonically increasing sequence number as a tie-breaker, so
// two runs over the same inputs produce identical event orderings. Virtual
// time is expressed in nanoseconds (Time).
//
// Events live by value inside per-lane binary heaps (no container/heap, no
// interface boxing), and a small top-level tournament — an index heap over
// the non-empty lanes keyed by their head event's (time, seq) — selects the
// globally next event in O(log lanes). A lane conventionally corresponds to
// one simulated node, which is what makes the parallel window driver
// (RunOptimistic; see parallel.go and optimistic.go) possible. Lane 0 is the
// default lane used by the single-queue compatibility API (Schedule, After,
// AfterTimer).
package sim

import (
	"fmt"
	"sync/atomic"
)

// Time is virtual time in nanoseconds since simulation start.
type Time int64

// Common time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / 1e3 }

// Millis converts t to floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / 1e6 }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fµs", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Kind identifies how an event is dispatched when it fires. Kind 0 is a
// plain captured closure; kind 1 is a cancelable Timer slot; kinds obtained
// from RegisterHandler dispatch through a registered handler function with a
// payload, avoiding a closure allocation per event.
type Kind uint8

const (
	kindClosure Kind = iota
	kindTimer
	kindHandlerBase
)

// event is a scheduled callback, stored by value in a lane heap.
type event struct {
	at   Time
	seq  uint64
	kind Kind
	fn   func()
	arg  any
}

func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// birth records one event scheduled during a parallel window, on the lane
// that scheduled it. Final sequence numbers are assigned at the barrier.
type birth struct {
	at       Time
	seq      uint64
	dst      int32
	kind     Kind
	consumed bool // already fired inside the window (same-lane, in-window)
	fn       func()
	arg      any
}

// firedRec logs one fired event that scheduled children, so the barrier can
// replay the window's global firing order and assign sequence numbers
// exactly as the sequential engine would have.
type firedRec struct {
	at       Time
	seq      uint64 // valid when bref < 0 (event existed before the window)
	bref     int32  // birth index when the event was born inside the window
	kidStart int32
	kidEnd   int32
}

// lane is one independent event queue plus its parallel-window scratch
// state. The heap is a standard array binary heap over (at, seq).
type lane struct {
	heap     []event
	dead     int // stopped-timer slots still occupying heap entries
	now      Time
	births   []birth
	log      []firedRec
	winFired uint64
}

func (ln *lane) push(ev event) {
	h := append(ln.heap, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !evLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	ln.heap = h
}

func (ln *lane) pop() event {
	h := ln.heap
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && evLess(&h[r], &h[l]) {
			m = r
		}
		if !evLess(&h[m], &h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	ln.heap = h
	return ev
}

func (ln *lane) heapify() {
	h := ln.heap
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		j := i
		for {
			l := 2*j + 1
			if l >= n {
				break
			}
			m := l
			if r := l + 1; r < n && evLess(&h[r], &h[l]) {
				m = r
			}
			if !evLess(&h[m], &h[j]) {
				break
			}
			h[j], h[m] = h[m], h[j]
			j = m
		}
	}
}

// Engine is a deterministic discrete-event simulator. It is not safe for
// concurrent use; all event callbacks run on the caller's goroutine (or,
// under RunOptimistic, on the worker that owns the callback's lane for the
// current window).
type Engine struct {
	lanes    []lane
	order    []int32 // index heap over non-empty lanes, keyed by head (at, seq)
	pos      []int32 // lane -> position in order, -1 when absent
	handlers []func(at Time, arg any)
	seq      uint64
	now      Time
	stopped  bool
	fired    uint64
	limit    uint64 // optional safety limit on fired events; 0 = unlimited
	epoch    uint32 // bumped by Drain so stale Timer handles become inert
	inPar    bool   // inside a parallel window: post() records births
	provBase uint64 // e.seq at window start; provisional seqs are > provBase
	winEnd   Time
	limitHit atomic.Bool // set by a worker that tripped the event limit
	conflict atomic.Bool // optimistic window: a cross-lane birth landed in-window
	optStats OptStats    // statistics of the last RunOptimistic drive
	heads    []int       // barrier scratch: per-active-lane log cursor
}

// NewEngine returns an empty engine at time zero with a single lane.
func NewEngine() *Engine {
	e := &Engine{}
	e.SetLanes(1)
	return e
}

// SetLanes reconfigures the engine to n independent event lanes (n >= 1).
// Lane 0 is the default lane; a machine typically maps node i to lane i+1.
// It panics if events are pending.
func (e *Engine) SetLanes(n int) {
	if n < 1 {
		panic("sim: SetLanes needs at least one lane")
	}
	if e.Pending() > 0 {
		panic("sim: SetLanes with events pending")
	}
	e.lanes = make([]lane, n)
	e.order = e.order[:0]
	e.pos = make([]int32, n)
	for i := range e.pos {
		e.pos[i] = -1
	}
}

// Lanes reports the number of configured lanes.
func (e *Engine) Lanes() int { return len(e.lanes) }

// RegisterHandler registers a typed event handler and returns its Kind.
// Events scheduled with that kind dispatch through the handler with their
// payload and fire time — no closure allocation per event.
func (e *Engine) RegisterHandler(h func(at Time, arg any)) Kind {
	e.handlers = append(e.handlers, h)
	k := kindHandlerBase + Kind(len(e.handlers)-1)
	if k < kindHandlerBase {
		panic("sim: too many registered handlers")
	}
	return k
}

// Now returns the current virtual time: the timestamp of the event being
// fired, or of the last fired event when called between Run calls. During
// parallel windows, use LaneNow from event callbacks instead.
func (e *Engine) Now() Time { return e.now }

// LaneNow returns the current virtual time as observed by code running on
// the given lane: the lane-local clock inside a parallel window, the global
// clock otherwise.
func (e *Engine) LaneNow(l int) Time {
	if e.inPar {
		return e.lanes[l].now
	}
	return e.now
}

// Fired reports the number of events fired so far. Stopped timer slots that
// are popped (rather than swept) count as fired no-ops.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports the number of events currently scheduled across all
// lanes, including not-yet-swept stopped timer slots.
func (e *Engine) Pending() int {
	n := 0
	for i := range e.lanes {
		n += len(e.lanes[i].heap)
	}
	return n
}

// LivePending is Pending minus stopped-timer slots still occupying heap
// entries: the number of events that will actually do work. A periodic
// activity that should end with the simulation (e.g. checkpoint ticks) keys
// off this — dead retry-timer slots linger for their original deadline and
// would otherwise read as pending work.
func (e *Engine) LivePending() int {
	n := 0
	for i := range e.lanes {
		n += len(e.lanes[i].heap) - e.lanes[i].dead
	}
	return n
}

// SetEventLimit installs a safety limit: Run returns an error after firing
// n events. Zero disables the limit.
func (e *Engine) SetEventLimit(n uint64) { e.limit = n }

// post is the single scheduling entry point. src is the lane on whose
// behalf the event is scheduled (the lane of the currently firing event);
// dst is the lane the event should fire on. Outside parallel windows the
// event receives its final sequence number immediately; inside a window it
// is recorded as a birth on src and sequenced at the barrier.
func (e *Engine) post(src, dst int, at Time, kind Kind, fn func(), arg any) {
	if e.inPar {
		sl := &e.lanes[src]
		if at < sl.now {
			at = sl.now
		}
		idx := len(sl.births)
		sl.births = append(sl.births, birth{at: at, dst: int32(dst), kind: kind, fn: fn, arg: arg})
		if dst == src && at < e.winEnd {
			// Same-lane and inside the window: insert immediately with a
			// provisional sequence number that encodes the birth index and
			// preserves lane-local order (see parallel.go).
			sl.push(event{at: at, seq: e.provBase + 1 + uint64(idx), kind: kind, fn: fn, arg: arg})
		} else if dst != src && at < e.winEnd {
			// A cross-lane birth inside the window: impossible under the
			// conservative lookahead, a straggler under speculation — the
			// optimistic runner rolls the window back (see optimistic.go).
			e.conflict.Store(true)
		}
		return
	}
	if at < e.now {
		at = e.now
	}
	e.seq++
	ln := &e.lanes[dst]
	wasEmpty := len(ln.heap) == 0
	ln.push(event{at: at, seq: e.seq, kind: kind, fn: fn, arg: arg})
	if wasEmpty {
		e.orderAdd(dst)
	} else if ln.heap[0].seq == e.seq {
		// New head: the lane got earlier, fix its tournament position.
		e.orderUp(int(e.pos[dst]))
	}
}

// Schedule enqueues fire to run at virtual time at, on lane 0. Scheduling
// in the past (at < Now) is clamped to Now, preserving causality.
func (e *Engine) Schedule(at Time, fire func()) {
	e.post(0, 0, at, kindClosure, fire, nil)
}

// ScheduleOn enqueues a typed event with payload arg to fire on lane dst at
// virtual time at, scheduled on behalf of lane src.
func (e *Engine) ScheduleOn(src, dst int, at Time, kind Kind, arg any) {
	e.post(src, dst, at, kind, nil, arg)
}

// ScheduleFuncOn enqueues a closure event to fire on lane dst at virtual
// time at, scheduled on behalf of lane src.
func (e *Engine) ScheduleFuncOn(src, dst int, at Time, fire func()) {
	e.post(src, dst, at, kindClosure, fire, nil)
}

// After enqueues fire to run d nanoseconds after the current time, on
// lane 0.
func (e *Engine) After(d Time, fire func()) { e.Schedule(e.now+d, fire) }

// Stop makes the current Run return after the in-flight event completes.
// Pending events remain queued. Not safe to call from callbacks running
// inside a parallel window.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called since the last Run.
func (e *Engine) Stopped() bool { return e.stopped }

// fire dispatches one popped event from lane l.
func (e *Engine) fire(l int, ev *event) {
	switch ev.kind {
	case kindClosure:
		ev.fn()
	case kindTimer:
		t := ev.arg.(*Timer)
		t.pending = false
		if t.stopped {
			// A stopped slot that escaped the sweep: fires as a no-op.
			if ln := &e.lanes[l]; ln.dead > 0 {
				ln.dead--
			}
			return
		}
		t.fired = true
		t.fn()
	default:
		e.handlers[ev.kind-kindHandlerBase](ev.at, ev.arg)
	}
}

// Run fires events in (time, seq) order until the queue is empty, Stop is
// called, or the event limit is exceeded. It returns the number of events
// fired during this call and an error if the limit tripped.
func (e *Engine) Run() (uint64, error) {
	return e.RunUntil(-1)
}

// RunUntil is Run bounded by virtual time: events with timestamp > deadline
// stay queued (events exactly at the deadline fire). A negative deadline
// means no bound.
func (e *Engine) RunUntil(deadline Time) (uint64, error) {
	e.stopped = false
	var n uint64
	for {
		if len(e.order) == 0 || e.stopped {
			return n, nil
		}
		l := int(e.order[0])
		ln := &e.lanes[l]
		if deadline >= 0 && ln.heap[0].at > deadline {
			e.now = deadline
			return n, nil
		}
		ev := ln.pop()
		if len(ln.heap) == 0 {
			e.orderRemoveAt(0)
		} else {
			e.orderDown(0)
		}
		e.now = ev.at
		ln.now = ev.at
		e.fire(l, &ev)
		n++
		e.fired++
		if e.limit != 0 && e.fired > e.limit {
			return n, errEventLimit(e.limit, e.now)
		}
	}
}

// Drain discards all pending events without firing them. Timers armed
// before Drain become inert: their heap slots are gone and their handles
// can be re-armed immediately.
func (e *Engine) Drain() {
	for i := range e.lanes {
		ln := &e.lanes[i]
		for j := range ln.heap {
			ln.heap[j] = event{}
		}
		ln.heap = ln.heap[:0]
		ln.dead = 0
		ln.births = ln.births[:0]
		ln.log = ln.log[:0]
	}
	e.order = e.order[:0]
	for i := range e.pos {
		e.pos[i] = -1
	}
	e.epoch++
}

// Tournament (index heap over non-empty lanes) maintenance. order holds
// lane indices; pos maps a lane to its slot in order (-1 when absent).

func (e *Engine) orderLess(i, j int) bool {
	a, b := e.order[i], e.order[j]
	return evLess(&e.lanes[a].heap[0], &e.lanes[b].heap[0])
}

func (e *Engine) orderSwap(i, j int) {
	e.order[i], e.order[j] = e.order[j], e.order[i]
	e.pos[e.order[i]] = int32(i)
	e.pos[e.order[j]] = int32(j)
}

func (e *Engine) orderUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.orderLess(i, p) {
			break
		}
		e.orderSwap(i, p)
		i = p
	}
}

// orderDown sifts slot i down; it reports whether the slot moved.
func (e *Engine) orderDown(i int) bool {
	start := i
	n := len(e.order)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && e.orderLess(r, l) {
			m = r
		}
		if !e.orderLess(m, i) {
			break
		}
		e.orderSwap(i, m)
		i = m
	}
	return i > start
}

func (e *Engine) orderAdd(l int) {
	e.pos[l] = int32(len(e.order))
	e.order = append(e.order, int32(l))
	e.orderUp(len(e.order) - 1)
}

func (e *Engine) orderRemoveAt(p int) {
	n := len(e.order) - 1
	l := e.order[p]
	e.orderSwap(p, n)
	e.order = e.order[:n]
	e.pos[l] = -1
	if p < n {
		if !e.orderDown(p) {
			e.orderUp(p)
		}
	}
}

// orderFixLane repositions lane l in the tournament after its head changed
// arbitrarily (sweep), appeared, or disappeared.
func (e *Engine) orderFixLane(l int) {
	p := e.pos[l]
	if len(e.lanes[l].heap) == 0 {
		if p >= 0 {
			e.orderRemoveAt(int(p))
		}
		return
	}
	if p < 0 {
		e.orderAdd(l)
		return
	}
	if !e.orderDown(int(p)) {
		e.orderUp(int(p))
	}
}

// orderRebuild reconstructs the tournament from scratch (used at parallel
// window barriers).
func (e *Engine) orderRebuild() {
	e.order = e.order[:0]
	for i := range e.lanes {
		if len(e.lanes[i].heap) > 0 {
			e.pos[i] = int32(len(e.order))
			e.order = append(e.order, int32(i))
		} else {
			e.pos[i] = -1
		}
	}
	for i := len(e.order)/2 - 1; i >= 0; i-- {
		e.orderDown(i)
	}
}

// Timer is a cancelable, re-armable scheduled callback, used for timeouts
// that are usually canceled before they fire (e.g. retransmission timers).
// Stopping a timer does not immediately remove its slot from the lane heap,
// but the callback is guaranteed not to run, and lanes lazily sweep their
// dead slots once they outnumber live events. The zero value can be armed
// with StartTimer; AfterTimer allocates one on lane 0.
type Timer struct {
	eng     *Engine
	fn      func()
	lane    int32
	epoch   uint32
	stopped bool
	fired   bool
	pending bool
}

// Stop cancels the timer. Safe to call more than once and after firing.
func (t *Timer) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.pending && t.eng != nil && t.epoch == t.eng.epoch {
		t.eng.noteDead(int(t.lane))
	}
}

// Stopped reports whether Stop was called since the timer was last armed.
func (t *Timer) Stopped() bool { return t.stopped }

// Fired reports whether the callback ran since the timer was last armed.
func (t *Timer) Fired() bool { return t.fired }

// Pending reports whether the timer's slot is still in an event queue.
func (t *Timer) Pending() bool { return t.pending }

// StartTimer arms (or re-arms) t to fire fn on the given lane d nanoseconds
// from now, scheduled on behalf of lane src. A nil fn reuses the timer's
// previous callback. Re-arming a timer whose slot is still queued panics:
// stop it and wait for the slot to be swept or popped first (Pending
// reports this).
func (e *Engine) StartTimer(src, lane int, t *Timer, d Time, fn func()) {
	if t.pending && t.epoch == e.epoch {
		panic("sim: StartTimer on a timer whose slot is still queued")
	}
	t.eng = e
	t.lane = int32(lane)
	t.epoch = e.epoch
	t.stopped = false
	t.fired = false
	t.pending = true
	if fn != nil {
		t.fn = fn
	}
	now := e.now
	if e.inPar {
		now = e.lanes[src].now
	}
	e.post(src, lane, now+d, kindTimer, nil, t)
}

// AfterTimer schedules fire to run d nanoseconds from now on lane 0 unless
// the returned Timer is stopped first.
func (e *Engine) AfterTimer(d Time, fire func()) *Timer {
	t := &Timer{}
	e.StartTimer(0, 0, t, d, fire)
	return t
}

// noteDead records one newly stopped pending timer slot on lane l and
// sweeps the lane once dead slots exceed half its queue.
func (e *Engine) noteDead(l int) {
	ln := &e.lanes[l]
	ln.dead++
	if ln.dead*2 > len(ln.heap) {
		e.sweepLane(l)
	}
}

// sweepLane removes stopped timer slots from lane l's heap and re-heapifies.
func (e *Engine) sweepLane(l int) {
	ln := &e.lanes[l]
	kept := ln.heap[:0]
	for i := range ln.heap {
		ev := ln.heap[i]
		if ev.kind == kindTimer {
			if t := ev.arg.(*Timer); t.stopped {
				t.pending = false
				continue
			}
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(ln.heap); i++ {
		ln.heap[i] = event{}
	}
	ln.heap = kept
	ln.dead = 0
	ln.heapify()
	if !e.inPar {
		e.orderFixLane(l)
	}
}
