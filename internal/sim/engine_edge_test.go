package sim

import (
	"reflect"
	"testing"
)

// TestRunUntilDeadlineOnEventTimestamp pins the boundary semantics: events
// stamped exactly at the deadline fire, later ones stay queued, and the
// clock parks on the deadline.
func TestRunUntilDeadlineOnEventTimestamp(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, at := range []Time{99, 100, 100, 101} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	n, err := e.RunUntil(100)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("fired %d events up to deadline, want 3", n)
	}
	if want := []Time{99, 100, 100}; !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if e.Now() != 100 {
		t.Fatalf("clock parked at %v, want deadline 100", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("%d events pending, want 1", e.Pending())
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{99, 100, 100, 101}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after resume fired %v, want %v", got, want)
	}
}

// TestSchedulePastDuringFiring checks the causality clamp from inside an
// event callback: a schedule into the past lands at the current instant and
// still fires within the same run, after the current event.
func TestSchedulePastDuringFiring(t *testing.T) {
	e := NewEngine()
	var got []Time
	e.Schedule(100, func() {
		e.Schedule(50, func() { got = append(got, e.Now()) })
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{100}; !reflect.DeepEqual(got, want) {
		t.Fatalf("clamped event fired at %v, want %v", got, want)
	}
}

// TestDrainThenReuse drains a loaded multi-lane engine — including armed
// timers — and verifies the engine and the timer handles are immediately
// reusable.
func TestDrainThenReuse(t *testing.T) {
	e := NewEngine()
	e.SetLanes(3)
	stale := 0
	for l := 0; l < 3; l++ {
		e.ScheduleFuncOn(l, l, Time(10+l), func() { stale++ })
	}
	var tm Timer
	e.StartTimer(1, 1, &tm, 5, func() { stale++ })
	if !tm.Pending() {
		t.Fatal("armed timer not pending")
	}
	e.Drain()
	if e.Pending() != 0 {
		t.Fatalf("%d events pending after Drain", e.Pending())
	}
	// The drained timer's slot is gone; re-arming must not panic even
	// though its pending flag was never cleared by a pop or sweep.
	fired := 0
	e.StartTimer(2, 2, &tm, 7, func() { fired++ })
	e.ScheduleFuncOn(0, 0, 3, func() { fired++ })
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if stale != 0 {
		t.Fatalf("%d drained events fired", stale)
	}
	if fired != 2 {
		t.Fatalf("fired %d post-Drain events, want 2", fired)
	}
}

// TestLaneSchedulingAndLaneNow drives typed events across lanes and checks
// the global merge order plus each lane's local clock.
func TestLaneSchedulingAndLaneNow(t *testing.T) {
	e := NewEngine()
	e.SetLanes(4)
	type rec struct {
		lane int
		at   Time
	}
	var got []rec
	kind := e.RegisterHandler(func(at Time, arg any) {
		got = append(got, rec{arg.(int), at})
	})
	e.ScheduleOn(0, 2, 30, kind, 2)
	e.ScheduleOn(0, 1, 10, kind, 1)
	e.ScheduleOn(1, 3, 20, kind, 3)
	e.ScheduleOn(2, 1, 20, kind, 1) // same time as lane 3's: scheduled later, fires later
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []rec{{1, 10}, {3, 20}, {1, 20}, {2, 30}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	// Outside a parallel window LaneNow is the global clock.
	if e.LaneNow(1) != e.Now() || e.Now() != 30 {
		t.Fatalf("LaneNow/Now = %v/%v, want 30/30", e.LaneNow(1), e.Now())
	}
}

// TestTimerLazySweep stops a majority of armed timers and verifies the lane
// sweeps their dead slots without firing them, while survivors still fire.
func TestTimerLazySweep(t *testing.T) {
	e := NewEngine()
	const n = 64
	timers := make([]*Timer, n)
	fired := 0
	for i := range timers {
		timers[i] = e.AfterTimer(Time(1000+i), func() { fired++ })
	}
	if e.Pending() != n {
		t.Fatalf("%d slots pending, want %d", e.Pending(), n)
	}
	// Stopping most timers must trigger sweeps along the way. The sweep is
	// lazy — dead slots may linger — but its invariant is that they never
	// outnumber the live ones, so with 8 survivors at most 16 slots remain.
	for i := 0; i < n-8; i++ {
		timers[i].Stop()
	}
	if p := e.Pending(); p < 8 || p > 16 {
		t.Fatalf("%d slots pending after sweeps, want 8..16", p)
	}
	swept := 0
	for i := 0; i < n-8; i++ {
		if !timers[i].Pending() {
			swept++
		}
	}
	if swept == 0 {
		t.Fatal("no stopped timer slot was swept")
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 8 {
		t.Fatalf("%d timers fired, want 8", fired)
	}
	// A swept timer can be re-armed at once.
	e.StartTimer(0, 0, timers[0], 5, nil)
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 9 {
		t.Fatalf("%d timers fired after re-arm, want 9", fired)
	}
}

// TestStartTimerWhileQueuedPanics pins the re-arm contract: a timer whose
// slot is still in a heap cannot be re-armed.
func TestStartTimerWhileQueuedPanics(t *testing.T) {
	e := NewEngine()
	tm := e.AfterTimer(10, func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("re-arming a queued timer did not panic")
		}
	}()
	e.StartTimer(0, 0, tm, 20, nil)
}

// parallelWorkload loads e with a deterministic multi-lane cascade whose
// cross-lane children always land at least lookahead ahead of the
// scheduling lane's clock (the conservative-parallelism contract). Each
// lane appends its firings to its own log slice, so callbacks stay
// lane-local under the window driver.
func parallelWorkload(e *Engine, lanes int, lookahead Time, logs [][]Time) {
	var spawn func(lane, depth, v int)
	spawn = func(lane, depth, v int) {
		e.ScheduleFuncOn(lane, lane, e.LaneNow(lane)+Time(v%13), func() {
			logs[lane] = append(logs[lane], e.LaneNow(lane))
			if depth == 0 {
				return
			}
			// Same-lane child inside the window, cross-lane child at the
			// minimum legal distance.
			spawn(lane, depth-1, v*7+1)
			dst := (lane + v) % lanes
			e.ScheduleFuncOn(lane, dst, e.LaneNow(lane)+lookahead+Time(v%29), func() {
				logs[dst] = append(logs[dst], e.LaneNow(dst))
			})
		})
	}
	for l := 0; l < lanes; l++ {
		spawn(l, 6, l+3)
	}
}
