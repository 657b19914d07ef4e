package sim

import "sync/atomic"

// The window driver: conservative and optimistic (Time Warp) execution.
//
// RunOptimistic is the engine's one parallel runner. It opens windows of an
// adaptive width Weff >= lookahead, bounded above by the speculation ceiling
// max(Window, GVTInterval), and lets lanes execute past the conservative
// horizon S = T + lookahead. A ceiling equal to the lookahead is the
// conservative preset: no window reaches past S, so no lane ever captures a
// snapshot and nothing can roll back. Events fired before S are exactly the
// conservative window and can never be invalidated (window closure: any
// cross-lane effect lands at least `lookahead` ahead of the scheduling
// lane's clock, hence at or after S). Events fired at or after S are
// speculative: before firing its first speculative event a lane captures a
// rollback snapshot — its heap, timer values, birth marks, and (through the
// LaneSaver) all external per-lane state such as node clocks, object state
// and protocol cursors.
//
// A straggler is a cross-lane birth with a timestamp inside the window. The
// scheduling hook in post() raises the shared conflict flag the moment one
// is recorded; the first straggler dooms the whole speculation, because a
// window may only commit when every event with a timestamp inside it has
// fired (otherwise children of the unfired event would receive sequence
// numbers after the committed events' children, diverging from the
// sequential assignment). On conflict every captured lane is rolled back to
// its snapshot — this is the anti-message: speculative sends never left the
// per-lane birth log, so revoking them is truncating that log (sender-side
// message buffering until commit; nothing reaches a remote lane that would
// need chasing) — and the window commits as the plain conservative window
// [T, S). Either way the commit runs the standard barrier sequence replay,
// so the determinism argument of parallel.go applies verbatim to every
// committed window: results are byte-identical to a sequential Run.
//
// The commit horizon of each window is the GVT (global virtual time): all
// state before it is final and its snapshots are released (fossil
// collection). Weff adapts to the workload — halved after a rollback,
// doubled after a clean speculative commit — so chatty phases degenerate to
// conservative windows while sparse phases widen their windows and amortise
// barriers.

// LaneSaver captures and restores external per-lane simulation state around
// speculative execution. Capture is called from the worker goroutine that
// owns the lane, between two of its events; Restore is called single-
// threaded at the window barrier. A nil LaneSaver rolls back engine state
// only (sufficient when event callbacks touch nothing outside the engine).
type LaneSaver interface {
	Capture(lane int) any
	Restore(lane int, snap any)
}

// OptimisticConfig parameterises RunOptimistic. Lookahead is the
// conservative safety bound (cross-lane effects land at least this far
// ahead). Window is the initial speculation width (zero or below the
// lookahead picks 16× the lookahead); GVTInterval, when positive, caps how
// far the adaptive width may grow (it bounds the virtual time between
// commits). When the ceiling max(Window, GVTInterval) equals the lookahead
// the drive is conservative and Saver may be nil. MaxRollbackDepth is the
// number of consecutive rolled-back windows tolerated before the width
// collapses straight to the conservative floor. Fence, when set, returns
// the earliest virtual time that must not be reached inside a parallel
// window (for example the next checkpoint-coordinator tick); SerialNow,
// when set and true, forces one-event-at-a-time execution (a marker round
// in flight). FenceLanes lists lanes whose events must always fire serially
// (the host lane: crash restores run there and touch every lane at once).
type OptimisticConfig struct {
	Lookahead        Time
	Window           Time
	MaxRollbackDepth int
	GVTInterval      Time
	Saver            LaneSaver
	Fence            func() Time
	SerialNow        func() bool
	FenceLanes       []int
}

// OptStats describes one RunOptimistic drive, for reporting and tests. All
// values are deterministic: window widths adapt on virtual-time conflicts
// only, never on wall-clock measurements or the worker schedule.
type OptStats struct {
	Windows     uint64 // parallel windows run (conservative and speculative)
	Speculative uint64 // windows opened wider than the lookahead
	Rollbacks   uint64 // speculative windows rolled back by a straggler
	SerialSteps uint64 // events fired one at a time under a fence
}

// laneSnap is the engine-level rollback snapshot of one lane, taken at the
// speculative horizon.
type laneSnap struct {
	heap     []event // pre-window entries only (final seq <= provBase)
	dead     int     // stopped-timer slots among the kept entries
	now      Time
	winFired uint64
	birthLen int
	logLen   int
	consumed []bool // consumed flags of births[:birthLen] at capture
	timers   []timerSave
	app      any // LaneSaver payload
}

// timerSave preserves a Timer's full value so rollback can undo speculative
// fires, stops and re-arms of pre-existing timer slots.
type timerSave struct {
	t *Timer
	v Timer
}

// captureLane snapshots lane l at the speculative horizon. Same-lane
// in-window births (provisional sequence numbers > provBase) are excluded
// from the heap copy: their birth records survive the rollback and the
// barrier re-pushes the unconsumed ones with final sequence numbers.
func (e *Engine) captureLane(l int, saver LaneSaver) *laneSnap {
	ln := &e.lanes[l]
	s := &laneSnap{
		now:      ln.now,
		winFired: ln.winFired,
		birthLen: len(ln.births),
		logLen:   len(ln.log),
	}
	s.heap = make([]event, 0, len(ln.heap))
	for i := range ln.heap {
		ev := ln.heap[i]
		if ev.seq > e.provBase {
			continue
		}
		s.heap = append(s.heap, ev)
		if ev.kind == kindTimer {
			t := ev.arg.(*Timer)
			s.timers = append(s.timers, timerSave{t, *t})
			if t.stopped {
				s.dead++
			}
		}
	}
	if n := len(ln.births); n > 0 {
		s.consumed = make([]bool, n)
		for i := range ln.births {
			s.consumed[i] = ln.births[i].consumed
			// A pre-capture birth's timer has no slot in the kept heap (its
			// provisional entry is excluded above), so its value must be saved
			// here or a speculative fire-and-re-arm would outlive the rollback.
			if b := &ln.births[i]; b.kind == kindTimer {
				t := b.arg.(*Timer)
				s.timers = append(s.timers, timerSave{t, *t})
			}
		}
	}
	if saver != nil {
		s.app = saver.Capture(l)
	}
	return s
}

// restoreLane rolls lane l back to its snapshot: speculative births are
// revoked (timers they armed become inert), pre-capture birth flags and the
// fired log are rewound, the heap is rebuilt from the kept entries, and
// pre-existing timer values are restored. Runs single-threaded at the
// barrier.
func (e *Engine) restoreLane(l int, s *laneSnap, saver LaneSaver) {
	ln := &e.lanes[l]
	for i := s.birthLen; i < len(ln.births); i++ {
		b := &ln.births[i]
		if b.kind == kindTimer {
			b.arg.(*Timer).pending = false
		}
		ln.births[i] = birth{}
	}
	ln.births = ln.births[:s.birthLen]
	for i := range s.consumed {
		ln.births[i].consumed = s.consumed[i]
	}
	for i := s.logLen; i < len(ln.log); i++ {
		ln.log[i] = firedRec{}
	}
	ln.log = ln.log[:s.logLen]
	for i := len(s.heap); i < len(ln.heap); i++ {
		ln.heap[i] = event{}
	}
	ln.heap = append(ln.heap[:0], s.heap...)
	ln.heapify()
	ln.dead = s.dead
	ln.now = s.now
	ln.winFired = s.winFired
	for _, ts := range s.timers {
		*ts.t = ts.v
	}
	if saver != nil {
		saver.Restore(l, s.app)
	}
}

// runLaneWindowOpt fires lane l's events with timestamps inside the current
// window, recording births and the fired log for the barrier, and returns
// the number of events fired (including stopped-timer no-ops). The lane
// captures its snapshot before its first event at or past the speculative
// horizon sHor, and stops speculating early once the window is already
// doomed by a conflict.
func (e *Engine) runLaneWindowOpt(l int, sHor Time, saver LaneSaver, snaps []*laneSnap) uint64 {
	ln := &e.lanes[l]
	end := e.winEnd
	limit := e.limit
	base := e.fired
	var fired uint64
	captured := false
	for len(ln.heap) > 0 && ln.heap[0].at < end {
		if limit != 0 && base+fired > limit {
			e.limitHit.Store(true)
			break
		}
		if !captured && ln.heap[0].at >= sHor {
			if e.conflict.Load() {
				// The window is already doomed: speculative work would be
				// rolled straight back, so stop before even capturing. Unfired
				// same-lane births still sit in the heap under provisional
				// sequence numbers; drop them — the barrier re-pushes their
				// (unconsumed) birth records with final numbers.
				ln.dropProvisional(e.provBase)
				break
			}
			s := e.captureLane(l, saver)
			// ln.winFired is only assigned when this function returns; the
			// conservative prefix fired so far lives in the local counter.
			s.winFired = fired
			snaps[l] = s
			captured = true
		} else if captured && e.conflict.Load() {
			break
		}
		ev := ln.pop()
		ln.now = ev.at
		kidStart := len(ln.births)
		e.fire(l, &ev)
		fired++
		if kidEnd := len(ln.births); kidEnd > kidStart {
			rec := firedRec{at: ev.at, seq: ev.seq, bref: -1,
				kidStart: int32(kidStart), kidEnd: int32(kidEnd)}
			if ev.seq > e.provBase {
				rec.bref = int32(ev.seq - e.provBase - 1)
			}
			ln.log = append(ln.log, rec)
		}
		if ev.seq > e.provBase {
			ln.births[ev.seq-e.provBase-1].consumed = true
		}
	}
	return fired
}

// dropProvisional removes same-lane in-window births (provisional sequence
// numbers > provBase) from the lane heap and recounts its dead slots. Their
// birth records remain and are re-sequenced at the barrier.
func (ln *lane) dropProvisional(provBase uint64) {
	kept := ln.heap[:0]
	dead := 0
	for i := range ln.heap {
		ev := ln.heap[i]
		if ev.seq > provBase {
			continue
		}
		if ev.kind == kindTimer && ev.arg.(*Timer).stopped {
			dead++
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(ln.heap); i++ {
		ln.heap[i] = event{}
	}
	ln.heap = kept
	ln.dead = dead
	ln.heapify()
}

// stepOne fires the globally next event sequentially (fence mode).
func (e *Engine) stepOne() error {
	l := int(e.order[0])
	ln := &e.lanes[l]
	ev := ln.pop()
	if len(ln.heap) == 0 {
		e.orderRemoveAt(0)
	} else {
		e.orderDown(0)
	}
	e.now = ev.at
	ln.now = ev.at
	e.fire(l, &ev)
	e.fired++
	if e.limit != 0 && e.fired > e.limit {
		return errEventLimit(e.limit, e.now)
	}
	return nil
}

// optPool is the persistent worker pool of one RunOptimistic drive. Workers
// park on the run channel between windows; each window releases one token
// per participating worker, the workers drain a shared lane cursor, and the
// dispatcher collects one completion (carrying any recovered panic) per
// token, so no goroutine is spawned per window.
type optPool struct {
	e      *Engine
	run    chan struct{}
	done   chan any
	active []int32
	cursor atomic.Int64
	sHor   Time
	saver  LaneSaver
	snaps  []*laneSnap
}

func newOptPool(e *Engine, workers int) *optPool {
	p := &optPool{e: e, run: make(chan struct{}), done: make(chan any, workers)}
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *optPool) worker() {
	for range p.run {
		p.done <- p.window()
	}
}

func (p *optPool) window() (panicked any) {
	defer func() { panicked = recover() }()
	for {
		k := int(p.cursor.Add(1)) - 1
		if k >= len(p.active) {
			return nil
		}
		l := int(p.active[k])
		p.e.lanes[l].winFired = p.e.runLaneWindowOpt(l, p.sHor, p.saver, p.snaps)
	}
}

// dispatch runs one window over the pool and re-raises any worker panic.
func (p *optPool) dispatch(active []int32, sHor Time, saver LaneSaver, snaps []*laneSnap, workers int) {
	p.active = active
	p.sHor = sHor
	p.saver = saver
	p.snaps = snaps
	p.cursor.Store(0)
	w := workers
	if w > len(active) {
		w = len(active)
	}
	for i := 0; i < w; i++ {
		p.run <- struct{}{}
	}
	var failed any
	for i := 0; i < w; i++ {
		if r := <-p.done; r != nil && failed == nil {
			failed = r
		}
	}
	if failed != nil {
		p.e.inPar = false
		panic(failed)
	}
}

func (p *optPool) close() { close(p.run) }

// RunOptimistic fires all pending events like Run, executing lanes
// concurrently on up to `workers` goroutines inside virtual-time windows:
// lookahead-width windows when the speculation ceiling equals the lookahead,
// otherwise adaptive windows that speculate past it and roll back on
// stragglers. Results — event order per lane, sequence numbers, and
// all lane-local state — are identical to a sequential Run. It falls back
// to Run when parallelism cannot help.
func (e *Engine) RunOptimistic(workers int, cfg OptimisticConfig) (uint64, error) {
	la := cfg.Lookahead
	if workers <= 1 || la <= 0 || len(e.lanes) <= 1 {
		return e.Run()
	}
	win := cfg.Window
	if win < la {
		win = la * 16
	}
	capW := win
	if cfg.GVTInterval > capW {
		capW = cfg.GVTInterval
	}
	maxDepth := cfg.MaxRollbackDepth
	if maxDepth <= 0 {
		maxDepth = 8
	}
	e.stopped = false
	e.limitHit.Store(false)
	e.optStats = OptStats{}
	pool := newOptPool(e, workers)
	defer pool.close()

	snaps := make([]*laneSnap, len(e.lanes))
	active := make([]int32, 0, len(e.lanes))
	var total uint64

	// Adaptive width state. All inputs are virtual-time facts, so the window
	// sequence (and OptStats) is reproducible run to run.
	weffCur := win
	probeIn := 0  // conservative windows to run before probing wider again
	penalty := 16 // next hold-down length; doubles on repeated collapse
	streak := 0   // consecutive rolled-back speculative windows

	for len(e.order) > 0 && !e.stopped {
		if cfg.SerialNow != nil && cfg.SerialNow() {
			e.optStats.SerialSteps++
			total++
			if err := e.stepOne(); err != nil {
				return total, err
			}
			continue
		}
		T := e.lanes[e.order[0]].heap[0].at
		fence := maxTime
		if cfg.Fence != nil {
			if f := cfg.Fence(); f >= 0 && f < fence {
				fence = f
			}
		}
		for _, fl := range cfg.FenceLanes {
			if h := e.lanes[fl].heap; len(h) > 0 && h[0].at < fence {
				fence = h[0].at
			}
		}
		if T >= fence {
			e.optStats.SerialSteps++
			total++
			if err := e.stepOne(); err != nil {
				return total, err
			}
			continue
		}
		weff := weffCur
		if weffCur <= la && capW > la {
			if probeIn > 0 {
				probeIn--
				weff = la
			} else {
				weff = 2 * la
			}
		}
		end := T + weff
		if end < T { // overflow
			end = maxTime
		}
		if end > fence {
			end = fence
		}
		sHor := T + la
		if sHor < T {
			sHor = maxTime
		}
		wide := end > sHor
		if !wide {
			// Closure-guaranteed window: no lane can be invalidated, so no
			// lane ever reaches the capture branch.
			sHor = end
		}

		active = active[:0]
		for i := range e.lanes {
			if h := e.lanes[i].heap; len(h) > 0 && h[0].at < end {
				active = append(active, int32(i))
			}
		}
		e.provBase = e.seq
		e.winEnd = end
		e.conflict.Store(false)
		e.inPar = true
		if len(active) == 1 {
			l := int(active[0])
			e.lanes[l].winFired = e.runLaneWindowOpt(l, sHor, cfg.Saver, snaps)
		} else {
			pool.dispatch(active, sHor, cfg.Saver, snaps, workers)
		}
		e.inPar = false
		e.optStats.Windows++

		if wide {
			e.optStats.Speculative++
			if e.conflict.Load() {
				// Straggler: revoke all speculation, commit the conservative
				// prefix. Clearing limitHit is safe — the barrier re-derives
				// the limit condition from the restored fired counts.
				e.optStats.Rollbacks++
				for _, l := range active {
					if s := snaps[l]; s != nil {
						e.restoreLane(int(l), s, cfg.Saver)
						snaps[l] = nil
					}
				}
				e.limitHit.Store(false)
				streak++
				weffCur = weff / 2
				if streak >= maxDepth {
					weffCur = la
					streak = 0
				}
				if weffCur <= la {
					weffCur = la
					probeIn = penalty
					if penalty < 1<<16 {
						penalty *= 2
					}
				}
			} else {
				// Clean speculative commit: this window's end is the new GVT;
				// snapshots are fossil-collected and the width grows.
				streak = 0
				penalty = 16
				for _, l := range active {
					snaps[l] = nil
				}
				weffCur = weff * 2
				if weffCur > capW {
					weffCur = capW
				}
			}
		}
		fired, err := e.barrier(active)
		total += fired
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// OptimisticStats reports the adaptive-window statistics of the most recent
// RunOptimistic drive.
func (e *Engine) OptimisticStats() OptStats { return e.optStats }
