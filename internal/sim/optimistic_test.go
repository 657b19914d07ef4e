package sim

import (
	"reflect"
	"testing"
)

// logSaver rolls per-lane external state (append-only logs) back with the
// engine: the canonical LaneSaver shape — capture a high-water mark, restore
// truncates to it.
type logSaver struct{ logs [][]Time }

func (s *logSaver) Capture(lane int) any { return len(s.logs[lane]) }
func (s *logSaver) Restore(lane int, snap any) {
	s.logs[lane] = s.logs[lane][:snap.(int)]
}

// fireSaver additionally rolls back a per-lane scalar counter.
type fireSaver struct {
	logs  [][]Time
	fires []int
}

type fireSnap struct {
	logLen int
	fires  int
}

func (s *fireSaver) Capture(lane int) any {
	return fireSnap{logLen: len(s.logs[lane]), fires: s.fires[lane]}
}

func (s *fireSaver) Restore(lane int, snap any) {
	fs := snap.(fireSnap)
	s.logs[lane] = s.logs[lane][:fs.logLen]
	s.fires[lane] = fs.fires
}

// TestRunOptimisticMatchesRun drives the chatty cascade of parallelWorkload
// through the window driver and requires per-lane firing logs, total event
// counts and final clocks identical to a sequential Run. The speculative
// case opens wide windows that cross-lane stragglers roll back; the
// conservative case sets the speculation ceiling to the lookahead, so no
// window may speculate or roll back, and it must run the 3 lookahead-width
// windows this workload needs.
func TestRunOptimisticMatchesRun(t *testing.T) {
	const lanes = 8
	const lookahead = Time(50)

	runOne := func(t *testing.T, cfg *OptimisticConfig) ([][]Time, uint64, Time, OptStats) {
		e := NewEngine()
		e.SetLanes(lanes)
		logs := make([][]Time, lanes)
		parallelWorkload(e, lanes, lookahead, logs)
		var n uint64
		var err error
		var st OptStats
		if cfg != nil {
			sv := &logSaver{logs: logs}
			c := *cfg
			c.Saver = sv
			n, err = e.RunOptimistic(4, c)
			logs = sv.logs
			st = e.OptimisticStats()
		} else {
			n, err = e.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		last := Time(0)
		for l := 0; l < lanes; l++ {
			if ln := e.LaneNow(l); ln > last {
				last = ln
			}
		}
		return logs, n, last, st
	}

	cases := []struct {
		name  string
		cfg   OptimisticConfig
		check func(OptStats) bool
	}{
		{"speculative", OptimisticConfig{Lookahead: lookahead, Window: lookahead * 16},
			func(st OptStats) bool { return st.Rollbacks > 0 }},
		{"conservative", OptimisticConfig{Lookahead: lookahead, Window: lookahead},
			func(st OptStats) bool { return st.Speculative == 0 && st.Rollbacks == 0 && st.Windows == 3 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqLogs, seqN, seqLast, _ := runOne(t, nil)
			optLogs, optN, optLast, st := runOne(t, &tc.cfg)
			if seqN != optN {
				t.Fatalf("event counts differ: sequential %d, windowed %d", seqN, optN)
			}
			if seqLast != optLast {
				t.Fatalf("final clocks differ: sequential %v, windowed %v", seqLast, optLast)
			}
			if !reflect.DeepEqual(seqLogs, optLogs) {
				t.Fatalf("per-lane firing logs differ:\nsequential %v\nwindowed   %v", seqLogs, optLogs)
			}
			if !tc.check(st) {
				t.Fatalf("unexpected window statistics: %+v", st)
			}
		})
	}
}

// TestRunOptimisticSpeculationCommits runs a lane-local workload (no
// cross-lane traffic at all): every speculative window must commit, the
// adaptive width must stay wide, and far fewer windows must run than the
// conservative runner's makespan/lookahead.
func TestRunOptimisticSpeculationCommits(t *testing.T) {
	const lanes = 6
	const lookahead = Time(50)

	build := func(e *Engine, logs [][]Time) {
		for l := 0; l < lanes; l++ {
			l := l
			var step func(v int)
			step = func(v int) {
				logs[l] = append(logs[l], e.LaneNow(l))
				if v >= 400 {
					return
				}
				e.ScheduleFuncOn(l, l, e.LaneNow(l)+Time(17+v%23), func() { step(v + 1) })
			}
			e.ScheduleFuncOn(l, l, Time(l+1), func() { step(0) })
		}
	}

	seqE := NewEngine()
	seqE.SetLanes(lanes)
	seqLogs := make([][]Time, lanes)
	build(seqE, seqLogs)
	seqN, err := seqE.Run()
	if err != nil {
		t.Fatal(err)
	}

	optE := NewEngine()
	optE.SetLanes(lanes)
	optLogs := make([][]Time, lanes)
	build(optE, optLogs)
	optN, err := optE.RunOptimistic(4, OptimisticConfig{
		Lookahead: lookahead,
		Window:    lookahead * 16,
		Saver:     &logSaver{logs: optLogs},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := optE.OptimisticStats()
	if optN != seqN {
		t.Fatalf("event counts differ: sequential %d, optimistic %d", seqN, optN)
	}
	if !reflect.DeepEqual(seqLogs, optLogs) {
		t.Fatalf("per-lane logs differ")
	}
	if st.Rollbacks != 0 {
		t.Fatalf("lane-local workload rolled back: %+v", st)
	}
	if st.Speculative == 0 {
		t.Fatalf("lane-local workload never speculated: %+v", st)
	}
	// Makespan ≈ 400 steps × ~28ns ≈ 11µs; conservative would need
	// makespan/lookahead ≈ 220 windows. Speculation must beat that by a wide
	// margin once the window has grown.
	if st.Windows > 120 {
		t.Fatalf("speculation did not widen windows: %d windows (%+v)", st.Windows, st)
	}
}

// TestRunOptimisticTimerRollback arms, fires, stops and re-arms timers on
// either side of speculative horizons while cross-lane stragglers force
// rollbacks, and requires timer behaviour identical to a sequential run.
func TestRunOptimisticTimerRollback(t *testing.T) {
	const lanes = 4
	const lookahead = Time(40)

	build := func(e *Engine, logs [][]Time, timers []Timer, fires []int) {
		for l := 0; l < lanes; l++ {
			l := l
			var arm func(v int)
			arm = func(v int) {
				e.StartTimer(l, l, &timers[l], Time(9+v%31), func() {
					fires[l]++
					logs[l] = append(logs[l], e.LaneNow(l))
					if v >= 120 {
						return
					}
					if v%7 == 3 {
						// Poke a neighbour at the minimum legal distance: a
						// straggler inside any wide speculative window.
						dst := (l + 1) % lanes
						e.ScheduleFuncOn(l, dst, e.LaneNow(l)+lookahead, func() {
							logs[dst] = append(logs[dst], -e.LaneNow(dst))
						})
					}
					arm(v + 1)
				})
			}
			e.ScheduleFuncOn(l, l, Time(l*3+1), func() { arm(l) })
		}
	}

	run := func(opt bool) ([][]Time, []int, uint64) {
		e := NewEngine()
		e.SetLanes(lanes)
		logs := make([][]Time, lanes)
		timers := make([]Timer, lanes)
		fires := make([]int, lanes)
		build(e, logs, timers, fires)
		var n uint64
		var err error
		if opt {
			n, err = e.RunOptimistic(3, OptimisticConfig{
				Lookahead: lookahead,
				Window:    lookahead * 8,
				Saver:     &fireSaver{logs: logs, fires: fires},
			})
		} else {
			n, err = e.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		return logs, fires, n
	}

	seqLogs, seqFires, seqN := run(false)
	optLogs, optFires, optN := run(true)
	if seqN != optN {
		t.Fatalf("event counts differ: %d vs %d", seqN, optN)
	}
	if !reflect.DeepEqual(seqFires, optFires) {
		t.Fatalf("timer fire counts differ: %v vs %v", seqFires, optFires)
	}
	if !reflect.DeepEqual(seqLogs, optLogs) {
		t.Fatalf("logs differ:\nsequential %v\noptimistic %v", seqLogs, optLogs)
	}
}

// TestRunOptimisticFences checks the serial fences: fence-lane events fire
// one at a time, a Fence() time bounds every window, and SerialNow forces
// serial stepping — with results identical to a sequential run.
func TestRunOptimisticFences(t *testing.T) {
	const lanes = 5
	const lookahead = Time(50)

	build := func(e *Engine, logs [][]Time) {
		parallelWorkload(e, lanes, lookahead, logs)
		// Host-lane (lane 0) interventions that must run serially.
		for i := 1; i <= 3; i++ {
			at := Time(i * 100)
			e.ScheduleFuncOn(0, 0, at, func() {
				logs[0] = append(logs[0], at)
			})
		}
	}

	run := func(opt bool) ([][]Time, uint64, OptStats) {
		e := NewEngine()
		e.SetLanes(lanes)
		logs := make([][]Time, lanes)
		build(e, logs)
		var n uint64
		var err error
		var st OptStats
		if opt {
			sv := &logSaver{logs: logs}
			n, err = e.RunOptimistic(4, OptimisticConfig{
				Lookahead:  lookahead,
				Window:     lookahead * 16,
				Saver:      sv,
				FenceLanes: []int{0},
			})
			logs = sv.logs
			st = e.OptimisticStats()
		} else {
			n, err = e.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		return logs, n, st
	}

	seqLogs, seqN, _ := run(false)
	optLogs, optN, st := run(true)
	if seqN != optN {
		t.Fatalf("event counts differ: %d vs %d", seqN, optN)
	}
	if !reflect.DeepEqual(seqLogs, optLogs) {
		t.Fatalf("logs differ:\nsequential %v\noptimistic %v", seqLogs, optLogs)
	}
	if st.SerialSteps < 3 {
		t.Fatalf("fence-lane events were not serial-stepped: %+v", st)
	}
}
