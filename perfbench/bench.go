package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"time"

	abcl "repro"
)

// defaultSeed is the benchmark seed whose digests are pinned in workloads.
const defaultSeed = 1

// systemSeed derives the simulator seed (placement and fault RNG) from the
// benchmark seed. abcl rejects seed 0, so the seed is mixed (splitmix64)
// and forced odd rather than passed through.
func systemSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64(z^z>>31) | 1
}

// digest fingerprints a run's virtual-time results: makespan, instruction
// total, wire totals and every Counters field, read by reflection so that a
// counter added later is covered without touching this function.
func digest(r abcl.Report) string {
	h := sha256.New()
	fmt.Fprintf(h, "elapsed=%d instr=%d packets=%d msgs=%d bytes=%d",
		r.Sched.Elapsed, r.Sched.TotalInstructions, r.Wire.Packets, r.Wire.LogicalMsgs, r.Wire.Bytes)
	v := reflect.ValueOf(r.Sched.Counters)
	for i := 0; i < v.NumField(); i++ {
		fmt.Fprintf(h, " %s=%v", v.Type().Field(i).Name, v.Field(i))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// bench holds one workload's set-up for one seed.
type bench struct {
	w    *workload
	seed int64 // system seed
	// ref is the digest every op must reproduce: the pinned digest on the
	// default seed, else the set-up's sequential reference run.
	ref string
	// setupErr records a set-up check that failed; the run is then not
	// correct even when every op reproduces ref.
	setupErr error
	// fired and windows are the engine event and window counts of the first
	// op; every later op must repeat them exactly.
	fired, windows uint64
	counted        bool
}

// newBench sets a workload up for a benchmark seed: it runs the program
// sequentially for the reference digest, checks that run against the
// internal/apps original and, on the default seed, against the pin.
func newBench(w *workload, seed int64) (*bench, error) {
	b := &bench{w: w, seed: systemSeed(seed)}
	sys, check, err := w.load(b.seed, abcl.Sequential())
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if err := sys.Run(); err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", w.name, err)
	}
	if err := check(); err != nil {
		return nil, fmt.Errorf("%s: reference run: %w", w.name, err)
	}
	rep := sys.Report()
	b.ref = digest(rep)
	orig, err := w.original(b.seed)
	if err != nil {
		return nil, fmt.Errorf("%s: internal/apps run: %w", w.name, err)
	}
	if orig != appRunOf(rep) {
		b.setupErr = fmt.Errorf("%s: loaded program disagrees with its internal/apps original: %+v vs %+v", w.name, appRunOf(rep), orig)
	}
	if seed == defaultSeed && b.ref != w.pinned {
		b.setupErr = fmt.Errorf("%s: reference digest %s differs from the pinned %s: virtual-time results changed", w.name, b.ref, w.pinned)
		b.ref = w.pinned
	}
	return b, nil
}

// op is one complete simulation: construction and program load (Setup),
// System.Run (Run), and the answer and digest checks (Verify). Ops travel
// from a measuring child process to its parent as JSON.
type op struct {
	Setup, Run, Verify time.Duration
	Msgs               uint64 // object-to-object messages, from the core counters
	Err                string // why the op failed; empty when it passed
	rep                abcl.Report
}

func (o op) total() time.Duration { return o.Setup + o.Run + o.Verify }

// do runs one op. A failure is recorded in the op, never raised.
func (b *bench) do() op {
	var o op
	t0 := time.Now()
	sys, check, err := b.w.load(b.seed, b.w.exec)
	t1 := time.Now()
	o.Setup = t1.Sub(t0)
	if err != nil {
		o.Err = err.Error()
		return o
	}
	err = sys.Run()
	t2 := time.Now()
	o.Run = t2.Sub(t1)
	if err == nil {
		err = check()
	}
	o.rep = sys.Report()
	if d := digest(o.rep); err == nil && d != b.ref {
		err = fmt.Errorf("virtual-time digest %s, want %s", d, b.ref)
	}
	fired, windows := sys.M.Eng.Fired(), sys.SyncWindows()
	if err == nil {
		if !b.counted {
			b.fired, b.windows, b.counted = fired, windows, true
		} else if fired != b.fired || windows != b.windows {
			err = fmt.Errorf("engine counts %d events / %d windows, earlier ops %d / %d", fired, windows, b.fired, b.windows)
		}
	}
	o.Verify = time.Since(t2)
	o.Msgs = o.rep.Sched.Counters.TotalMessages()
	if err != nil {
		o.Err = err.Error()
	}
	return o
}

// loop runs ops back to back, one client in a closed loop, for at least d
// and at least atLeast ops, but stops at limit whatever the op count.
func (b *bench) loop(d time.Duration, atLeast int, limit time.Duration) []op {
	var ops []op
	start := time.Now()
	for {
		el := time.Since(start)
		if (el >= d && len(ops) >= atLeast) || el >= limit {
			return ops
		}
		ops = append(ops, b.do())
	}
}

// failures counts failed ops.
func failures(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.Err != "" {
			n++
		}
	}
	return n
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs must be non-empty; it is not modified.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// millis maps ops to a duration in milliseconds.
func millis(ops []op, f func(op) time.Duration) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = float64(f(o)) / 1e6
	}
	return out
}
