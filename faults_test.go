package abcl_test

import (
	"reflect"
	"testing"

	abcl "repro"
	"repro/internal/apps/misc"
	"repro/internal/trace"
)

// faultRun executes one fork-join workload under the given options and
// returns everything that must be reproducible: counters, elapsed time,
// packet totals, the trace (its last 4096 events), and the workload's
// answer.
type faultRun struct {
	answer  int64
	elapsed abcl.Time
	packets uint64
	stats   abcl.Counters
	trace   []string
}

func runFaulted(t *testing.T, depth int, opts ...abcl.Option) faultRun {
	t.Helper()
	ring := trace.NewRing(4096)
	sys, err := abcl.NewSystem(append(opts[:len(opts):len(opts)], abcl.WithObserver(ring))...)
	if err != nil {
		t.Fatal(err)
	}
	answer, err := misc.RunForkJoinOn(sys, depth)
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	r := faultRun{
		answer:  answer,
		elapsed: rep.Sched.Elapsed,
		packets: rep.Wire.Packets,
		stats:   rep.Sched.Counters,
		trace:   traceLines(ring),
	}
	return r
}

// TestFaultDeterminism is the reproducibility contract of the fault
// subsystem: the same (seed, fault plan) always yields byte-identical
// counters, elapsed virtual time and trace — regardless of how lossy the
// schedule is.
func TestFaultDeterminism(t *testing.T) {
	cases := []struct {
		name string
		seed int64
		plan abcl.FaultPlan
	}{
		{"drop-only", 3, abcl.UniformFaults(0.2, 0, 0)},
		{"dup-only", 5, abcl.UniformFaults(0, 0.3, 0)},
		{"jitter-only", 7, abcl.UniformFaults(0, 0, 5000)},
		{"everything", 11, abcl.UniformFaults(0.15, 0.1, 3000)},
		{"hot-link", 13, abcl.FaultPlan{
			Links: []abcl.LinkFault{
				{Src: 0, Dst: 1, Drop: 0.5},
				{Src: abcl.Wildcard, Dst: abcl.Wildcard, Drop: 0.05},
			},
		}},
		{"with-pause", 17, abcl.UniformFaults(0.1, 0, 0).
			WithPause(1, 10_000, 200_000)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := []abcl.Option{
				abcl.WithNodes(4), abcl.WithSeed(tc.seed),
				abcl.WithFaults(tc.plan),
			}
			a := runFaulted(t, 7, opts...)
			b := runFaulted(t, 7, opts...)
			if a.stats != b.stats {
				t.Errorf("counters differ across identical runs:\n%+v\nvs\n%+v", a.stats, b.stats)
			}
			if a.elapsed != b.elapsed || a.packets != b.packets || a.answer != b.answer {
				t.Errorf("run differs: elapsed %v/%v packets %d/%d answer %d/%d",
					a.elapsed, b.elapsed, a.packets, b.packets, a.answer, b.answer)
			}
			if !reflect.DeepEqual(a.trace, b.trace) {
				t.Errorf("traces differ: %d vs %d events", len(a.trace), len(b.trace))
			}
			// The faults must not corrupt the computation itself.
			if a.answer != 128 {
				t.Errorf("answer = %d, want 128 leaves", a.answer)
			}
			if lost := a.stats.LostMessages(); lost != 0 {
				t.Errorf("lost %d messages", lost)
			}
		})
	}
}

// TestSeedChangesFaultSchedule guards against the injector ignoring the
// seed: different seeds must produce different fault schedules.
func TestSeedChangesFaultSchedule(t *testing.T) {
	plan := abcl.UniformFaults(0.2, 0.1, 2000)
	a := runFaulted(t, 7, abcl.WithNodes(4), abcl.WithSeed(1), abcl.WithFaults(plan))
	b := runFaulted(t, 7, abcl.WithNodes(4), abcl.WithSeed(2), abcl.WithFaults(plan))
	if a.stats == b.stats {
		t.Error("different seeds produced identical fault schedules")
	}
	if a.answer != b.answer {
		t.Errorf("answer must not depend on the seed: %d vs %d", a.answer, b.answer)
	}
}
