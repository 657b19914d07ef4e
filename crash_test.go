package abcl_test

import (
	"reflect"
	"testing"

	abcl "repro"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
	"repro/internal/trace"
)

// crashRun executes one N-queens search under the given options and returns
// everything a recovery must reproduce.
type crashRun struct {
	solutions int64
	elapsed   abcl.Time
	stats     abcl.Counters
	report    abcl.Report
}

func runQueens(t *testing.T, n int, opts ...abcl.Option) crashRun {
	t.Helper()
	sys, err := abcl.NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	d := nqueens.Build(sys, n, 0)
	d.Start()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	return crashRun{solutions: res.Solutions, elapsed: rep.Sched.Elapsed, stats: rep.Sched.Counters, report: rep}
}

// traceLines renders an observer ring's retained events, one per line.
func traceLines(r *trace.Ring) []string {
	var lines []string
	for _, e := range r.Events() {
		lines = append(lines, e.String())
	}
	return lines
}

// queensSolutions holds the exact answers the search must produce.
var queensSolutions = map[int]int64{5: 10, 6: 4, 7: 40, 8: 92}

// TestCrashRecoveryNQueens is the subsystem's headline property: with
// reliable delivery and periodic checkpoints on, a run that loses a node
// mid-search and recovers from the last checkpoint produces exactly the
// result of the fault-free run — no lost work, no double-counted solutions.
func TestCrashRecoveryNQueens(t *testing.T) {
	const n = 6
	base := []abcl.Option{abcl.WithNodes(4), abcl.WithSeed(11), abcl.WithReliable()}
	clean := runQueens(t, n, base...)
	if clean.solutions != queensSolutions[n] {
		t.Fatalf("fault-free run: %d solutions, want %d", clean.solutions, queensSolutions[n])
	}

	// Crash node 2 a third of the way into the fault-free makespan and
	// restart it shortly after; checkpoint often enough that real rounds
	// complete before the crash.
	crashAt := clean.elapsed / 3
	plan := abcl.FaultPlan{}.WithCrash(2, crashAt, clean.elapsed/10)
	crashed := runQueens(t, n,
		abcl.WithNodes(4), abcl.WithSeed(11),
		abcl.WithCheckpoint(clean.elapsed/8),
		abcl.WithFaults(plan),
	)
	if crashed.solutions != clean.solutions {
		t.Errorf("recovered run found %d solutions, fault-free found %d", crashed.solutions, clean.solutions)
	}
	c := crashed.stats
	if c.NodeCrashes != 1 || c.NodeRestarts != 1 {
		t.Errorf("crashes=%d restarts=%d, want 1/1", c.NodeCrashes, c.NodeRestarts)
	}
	if c.CkptSaves == 0 || c.CkptBytes == 0 {
		t.Errorf("no checkpoint writes recorded: saves=%d bytes=%d", c.CkptSaves, c.CkptBytes)
	}
	if c.RelAbandoned != 0 {
		t.Errorf("reliable layer abandoned %d messages during recovery", c.RelAbandoned)
	}
	if crashed.elapsed <= clean.elapsed {
		t.Errorf("recovered run (%v) not slower than fault-free (%v): rollback re-execution missing?",
			crashed.elapsed, clean.elapsed)
	}
}

// TestCrashRecoveryDeterminism re-runs an identical crash-and-recover
// configuration and requires byte-identical counters, elapsed time and
// trace: recovery is part of the deterministic simulation, not an escape
// from it.
func TestCrashRecoveryDeterminism(t *testing.T) {
	const n = 6
	clean := runQueens(t, n, abcl.WithNodes(4), abcl.WithSeed(7), abcl.WithReliable())
	plan := abcl.FaultPlan{}.WithCrash(1, clean.elapsed/4, clean.elapsed/12)
	opts := []abcl.Option{
		abcl.WithNodes(4), abcl.WithSeed(7),
		abcl.WithCheckpoint(clean.elapsed / 6),
		abcl.WithFaults(plan),
	}
	ringA, ringB := trace.NewRing(1<<15), trace.NewRing(1<<15)
	a := runQueens(t, n, append(opts, abcl.WithObserver(ringA))...)
	b := runQueens(t, n, append(opts, abcl.WithObserver(ringB))...)
	traceA, traceB := traceLines(ringA), traceLines(ringB)
	if a.stats != b.stats {
		t.Errorf("counters differ across identical crash runs:\n%+v\nvs\n%+v", a.stats, b.stats)
	}
	if a.elapsed != b.elapsed || a.solutions != b.solutions {
		t.Errorf("elapsed/answer differ: (%v, %d) vs (%v, %d)",
			a.elapsed, a.solutions, b.elapsed, b.solutions)
	}
	if !reflect.DeepEqual(traceA, traceB) {
		for i := range traceA {
			if i < len(traceB) && traceA[i] != traceB[i] {
				t.Errorf("trace diverges at %d:\n  %s\n  %s", i, traceA[i], traceB[i])
				break
			}
		}
		t.Errorf("traces differ (%d vs %d events)", len(traceA), len(traceB))
	}
}

// TestCrashBeforeFirstCheckpoint crashes so early that only the automatic
// baseline (round 0) checkpoint exists, twice in a row on the same node:
// recovery restarts the whole computation from its initial state each time
// and still completes exactly.
func TestCrashBeforeFirstCheckpoint(t *testing.T) {
	const n = 6
	clean := runQueens(t, n, abcl.WithNodes(4), abcl.WithSeed(3), abcl.WithReliable())
	early := clean.elapsed / 50
	plan := abcl.FaultPlan{}.
		WithCrash(3, early, early).
		WithCrash(3, 3*early, early)
	// No WithCheckpoint: the crash plan alone attaches the subsystem with
	// only the baseline checkpoint.
	crashed := runQueens(t, n, abcl.WithNodes(4), abcl.WithSeed(3), abcl.WithFaults(plan))
	if crashed.solutions != clean.solutions {
		t.Errorf("recover-from-baseline found %d solutions, want %d", crashed.solutions, clean.solutions)
	}
	c := crashed.stats
	if c.NodeCrashes != 2 || c.NodeRestarts != 2 {
		t.Errorf("crashes=%d restarts=%d, want 2/2", c.NodeCrashes, c.NodeRestarts)
	}
	if c.CkptRounds != 0 {
		t.Errorf("completed %d periodic rounds with checkpointing nominally off", c.CkptRounds)
	}
}

// TestCrashWithBatching combines a crash with per-link batching: the crash
// can strike with half-flushed batches open on any link, and recovery must
// tear them down and still deliver the exact result.
func TestCrashWithBatching(t *testing.T) {
	const n = 6
	batched := []abcl.Option{
		abcl.WithNodes(4), abcl.WithSeed(5), abcl.WithReliable(),
		abcl.WithBatching(2000*abcl.Nanosecond, 0),
	}
	clean := runQueens(t, n, batched...)
	if clean.solutions != queensSolutions[n] {
		t.Fatalf("batched fault-free run: %d solutions, want %d", clean.solutions, queensSolutions[n])
	}
	plan := abcl.FaultPlan{}.WithCrash(2, clean.elapsed/3, clean.elapsed/10)
	crashed := runQueens(t, n,
		abcl.WithNodes(4), abcl.WithSeed(5),
		abcl.WithBatching(2000*abcl.Nanosecond, 0),
		abcl.WithCheckpoint(clean.elapsed/8),
		abcl.WithFaults(plan),
	)
	if crashed.solutions != clean.solutions {
		t.Errorf("batched recovery found %d solutions, want %d", crashed.solutions, clean.solutions)
	}
	if crashed.stats.RelAbandoned != 0 {
		t.Errorf("reliable layer abandoned %d messages", crashed.stats.RelAbandoned)
	}
}

// TestCrashDuringMigration crashes the migration target while an object's
// state is in flight to it: the rolled-back timeline re-runs the whole
// transfer, and the object must neither lose its state nor its reachability
// through the old address.
func TestCrashDuringMigration(t *testing.T) {
	sys, err := abcl.NewSystem(
		abcl.WithNodes(3), abcl.WithSeed(9),
		abcl.WithFaults(abcl.FaultPlan{}.WithCrash(2, 2_000, 50_000)),
	)
	if err != nil {
		t.Fatal(err)
	}
	cls, _, add, get := misc.BuildCounter(sys)
	counter := sys.NewObjectOn(1, cls)

	// A driver pumps adds at the counter through its old address and then
	// reads it back; the read's reply lands in a host variable as an
	// idempotent set.
	kick := sys.Pattern("cm.kick", 0)
	read := sys.Pattern("cm.read", 0)
	var got int64 = -1
	drv := sys.Class("cm.drv", 0, nil)
	drv.Method(kick, func(ctx *abcl.Ctx) {
		for i := 0; i < 10; i++ {
			ctx.SendPast(counter, add, abcl.Int(3))
		}
	})
	drv.Method(read, func(ctx *abcl.Ctx) {
		ctx.SendNow(counter, get, nil, func(ctx *abcl.Ctx, v abcl.Value) {
			got = v.Int()
		})
	})
	d := sys.NewObjectOn(0, drv)

	// Start the migration 1 -> 2 and the add traffic together, then crash
	// node 2 while the transfer is in flight (the crash fires at 2µs, well
	// inside the migration's wire time plus handler latency).
	sys.Send(d, kick)
	if err := sys.Migrate(counter, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	sys.Send(d, read)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 30 {
		t.Errorf("counter after crashed migration = %d, want 30", got)
	}
	c := sys.Report().Sched.Counters
	if c.NodeCrashes != 1 || c.NodeRestarts != 1 {
		t.Errorf("crashes=%d restarts=%d, want 1/1", c.NodeCrashes, c.NodeRestarts)
	}
}

// TestSnapshotRestoreRoundTrip exercises the quiescent System.Snapshot /
// System.Restore surface: snapshotting the freshly built system, running to
// completion, restoring, and running again must reproduce the identical
// answer — the restored state is the pre-run state.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const n = 5
	sys, err := abcl.NewSystem(
		abcl.WithNodes(4), abcl.WithSeed(2),
		abcl.WithCheckpoint(1*abcl.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	d := nqueens.Build(sys, n, 0)
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.SizeBytes() == 0 {
		t.Error("pre-run snapshot has zero stable-store footprint")
	}
	d.Start()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	first, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	if first.Solutions != queensSolutions[n] {
		t.Fatalf("first run: %d solutions, want %d", first.Solutions, queensSolutions[n])
	}

	// Roll back to the pre-run snapshot and run the search again from it.
	if err := sys.Restore(); err != nil {
		t.Fatal(err)
	}
	d.Start()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	second, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	if second.Solutions != first.Solutions {
		t.Errorf("re-run after Restore found %d solutions, want %d", second.Solutions, first.Solutions)
	}
}

// TestCheckpointRequiresSupport pins the option-validation surface. Every
// executor accepts checkpointing; TestOptimisticCrashRecovery checks that
// the parallel ones recover exactly like the sequential engine.
func TestCheckpointRequiresSupport(t *testing.T) {
	if _, err := abcl.NewSystem(abcl.WithCheckpoint(0)); err == nil {
		t.Error("WithCheckpoint(0) accepted")
	}
	if _, err := abcl.NewSystem(
		abcl.WithNodes(4), abcl.WithCheckpoint(1000), abcl.WithExecutor(abcl.Conservative(4)),
	); err != nil {
		t.Errorf("WithCheckpoint + Conservative executor rejected: %v", err)
	}
	sys, err := abcl.NewSystem(abcl.WithNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Snapshot(); err == nil {
		t.Error("Snapshot without checkpointing accepted")
	}
	if err := sys.Restore(); err == nil {
		t.Error("Restore without checkpointing accepted")
	}
	sys2, err := abcl.NewSystem(abcl.WithNodes(2), abcl.WithCheckpoint(1000))
	if err != nil {
		t.Fatal(err)
	}
	if !sys2.Report().Reliable.Enabled {
		t.Error("WithCheckpoint did not force reliable delivery")
	}
}
