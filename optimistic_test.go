package abcl_test

import (
	"reflect"
	"testing"

	abcl "repro"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/conformance"
)

// optExec is the Time Warp executor configuration the equivalence suite
// runs under. Four workers over small node counts keeps every lane hot.
func optExec() abcl.Option {
	return abcl.WithExecutor(abcl.Optimistic(4, abcl.OptimisticOptions{}))
}

// runConformance executes one generated conformance program through the
// facade under the given executor and returns its observation plus the
// full report.
func runConformance(t *testing.T, seed int64, nodes int, exec abcl.Option) (conformance.Expected, abcl.Report) {
	t.Helper()
	p := conformance.Generate(seed, nodes)
	p.Reset()
	sys, err := abcl.NewSystem(abcl.WithNodes(nodes), abcl.WithSeed(1), exec)
	if err != nil {
		t.Fatal(err)
	}
	inject := p.Build(sys.RT)
	inject()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return p.Observe(sys.RT), sys.Report()
}

// TestOptimisticConformance: the Time Warp executor is byte-identical to
// the sequential engine on every generated conformance program — same
// observations, same full report (virtual time, all counters).
func TestOptimisticConformance(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		nodes := 2 + int(seed)%6
		seqObs, seqRep := runConformance(t, seed, nodes, abcl.WithExecutor(abcl.Sequential()))
		optObs, optRep := runConformance(t, seed, nodes, optExec())
		if seqObs != optObs {
			t.Errorf("seed %d (%d nodes): observations diverge: seq %+v opt %+v", seed, nodes, seqObs, optObs)
		}
		if !reflect.DeepEqual(seqRep, optRep) {
			t.Errorf("seed %d (%d nodes): reports diverge:\nseq %+v\nopt %+v", seed, nodes, seqRep, optRep)
		}
	}
}

// TestOptimisticAllToAll: the worst case for speculation — every lane sends
// to every other, so cross-lane messages constantly land inside open
// windows — still commits to exactly the sequential result.
func TestOptimisticAllToAll(t *testing.T) {
	run := func(exec abcl.Option) *misc.AllToAllResult {
		res, err := misc.RunAllToAll(misc.AllToAllOptions{
			Nodes: 8, Rounds: 6, Opts: []abcl.Option{exec},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(abcl.WithExecutor(abcl.Sequential()))
	opt := run(optExec())
	// SyncWindows is executor bookkeeping, not a simulation result — mask
	// it before comparing the equivalence surface.
	opt.SyncWindows = seq.SyncWindows
	if !reflect.DeepEqual(seq, opt) {
		t.Errorf("all-to-all diverges:\nseq %+v\nopt %+v", seq, opt)
	}
}

// runOptContention is an instrumented contended workload: grouped
// (multiactive) hot object on node 0, echo shards on the others, clients
// hammering it — and it hands back the system so tests can read OptStats.
func runOptContention(t *testing.T, extra ...abcl.Option) (int64, abcl.Report, *abcl.System) {
	t.Helper()
	const (
		nodes   = 4
		clients = 6
		opsEach = 10
	)
	opts := append([]abcl.Option{abcl.WithNodes(nodes), abcl.WithSeed(11)}, extra...)
	sys, err := abcl.NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ping := sys.Pattern("ow.ping", 0)
	req := sys.Pattern("ow.req", 0)
	step := sys.Pattern("ow.step", 1)

	echo := sys.NewClass("ow.echo", 0, nil).
		Method(ping, func(ctx *abcl.Ctx) {
			ctx.Charge(300)
			ctx.Reply(abcl.Int(0))
		})
	shards := make([]abcl.Address, nodes-1)
	for i := range shards {
		shards[i] = sys.NewObjectOn(i+1, echo)
	}
	hot := sys.NewClass("ow.hot", 2, func(ic *abcl.InitCtx) {
		ic.SetState(0, abcl.Int(0))
		ic.SetState(1, abcl.Int(0))
	}).
		Method(req, func(ctx *abcl.Ctx) {
			cur := ctx.State(1).Int()
			ctx.SetState(1, abcl.Int(cur+1))
			ctx.SendNow(shards[cur%int64(len(shards))], ping, nil, func(ctx *abcl.Ctx, _ abcl.Value) {
				ctx.SetState(0, abcl.Int(ctx.State(0).Int()+1))
				ctx.Reply(abcl.Int(0))
			})
		}).
		Group("reqs", req)
	hotAddr := sys.NewObjectOn(0, hot)

	client := sys.NewClass("ow.client", 0, nil).
		Method(step, func(ctx *abcl.Ctx) {
			rem := ctx.Arg(0).Int()
			if rem == 0 {
				return
			}
			ctx.SendNow(hotAddr, req, nil, func(ctx *abcl.Ctx, _ abcl.Value) {
				ctx.SendPast(ctx.Self(), step, abcl.Int(rem-1))
			})
		})
	for i := 0; i < clients; i++ {
		sys.Send(sys.NewObjectOn(1+i%(nodes-1), client), step, abcl.Int(opsEach))
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return hotAddr.Obj.State(0).Int(), sys.Report(), sys
}

// TestOptimisticMultiactiveOvertake: a multiactive (grouped) object keeps
// several invocations live across now-type round trips; a straggler request
// arriving into another lane's speculated past must roll the whole window
// back without disturbing the group's ready-queue order. The committed
// result — including per-group scheduling counters — is byte-identical to
// the sequential run, and the run must actually have exercised rollback.
func TestOptimisticMultiactiveOvertake(t *testing.T) {
	seqDone, seqRep, _ := runOptContention(t)
	optDone, optRep, sys := runOptContention(t, optExec())
	if seqDone != optDone {
		t.Errorf("completed ops diverge: seq %d opt %d", seqDone, optDone)
	}
	if !reflect.DeepEqual(seqRep, optRep) {
		t.Errorf("reports diverge:\nseq %+v\nopt %+v", seqRep, optRep)
	}
	st := sys.OptStats()
	if st.Windows == 0 || st.Speculative == 0 {
		t.Errorf("executor never speculated: %+v", st)
	}
	if st.Rollbacks == 0 {
		t.Errorf("contended multiactive run exercised no rollback: %+v", st)
	}
}

// TestOptimisticStatsDeterministic: the adaptive window schedule depends
// only on virtual time, never on the worker schedule — two runs report the
// same windows, speculations and rollbacks.
func TestOptimisticStatsDeterministic(t *testing.T) {
	_, _, a := runOptContention(t, optExec())
	_, _, b := runOptContention(t, optExec())
	if a.OptStats() != b.OptStats() {
		t.Errorf("OptStats nondeterministic: %+v vs %+v", a.OptStats(), b.OptStats())
	}
}

// TestOptimisticFaultEquivalence: fault injection draws from per-link
// random streams that rollback must rewind — a replayed transmission
// attempt sees the same drop/duplicate/jitter decisions as a sequential
// run, under the full reliable protocol with coalesced (delayed) acks.
// An ack revoked with a rolled-back window (the anti-message racing the
// coalesced ack) must not change what the sender retransmits.
func TestOptimisticFaultEquivalence(t *testing.T) {
	run := func(exec abcl.Option) hotkey.Result {
		res, err := hotkey.Run(hotkey.Options{
			Nodes: 4, Clients: 6, Ops: 8, Seed: 7,
			Faults:   abcl.UniformFaults(0.10, 0.05, 2*abcl.Microsecond),
			AckDelay: 3 * abcl.Microsecond,
			Extra:    []abcl.Option{exec},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := run(abcl.WithExecutor(abcl.Sequential()))
	opt := run(optExec())
	if !reflect.DeepEqual(seq, opt) {
		t.Errorf("faulted hotkey diverges:\nseq %+v\nopt %+v", seq, opt)
	}
}

// TestOptimisticCrashRecovery: checkpoint rounds and a crash/restart run
// under both parallel executors — marker rounds and restarts are fenced
// (serial). Under Optimistic the lanes speculate freely between rounds, and
// a rollback that crosses checkpoint retention must leave the stable store
// able to replay exactly the committed messages; under Conservative the
// same fences run with pooling on and no speculation. Both recover with a
// report identical to the sequential recovery.
func TestOptimisticCrashRecovery(t *testing.T) {
	const n = 6
	base := []abcl.Option{abcl.WithNodes(4), abcl.WithSeed(11), abcl.WithReliable()}
	clean := runQueens(t, n, base...)
	if clean.solutions != queensSolutions[n] {
		t.Fatalf("fault-free run: %d solutions, want %d", clean.solutions, queensSolutions[n])
	}
	crashAt := clean.elapsed / 3
	ckptOpts := func(exec abcl.Option) []abcl.Option {
		return []abcl.Option{
			abcl.WithNodes(4), abcl.WithSeed(11),
			abcl.WithCheckpoint(clean.elapsed / 8),
			abcl.WithFaults(abcl.FaultPlan{}.WithCrash(2, crashAt, clean.elapsed/10)),
			exec,
		}
	}
	seq := runQueens(t, n, ckptOpts(abcl.WithExecutor(abcl.Sequential()))...)
	if seq.solutions != clean.solutions {
		t.Fatalf("sequential recovery found %d solutions, want %d", seq.solutions, clean.solutions)
	}
	if seq.stats.NodeRestarts == 0 {
		t.Fatalf("sequential run never restarted: %+v", seq.stats)
	}
	for _, exec := range []abcl.Option{optExec(), abcl.WithExecutor(abcl.Conservative(4))} {
		par := runQueens(t, n, ckptOpts(exec)...)
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("recovered runs diverge:\nseq %+v\npar %+v", seq, par)
		}
	}
}

// TestOptimisticForkJoin: creation-heavy traffic exercises the remote
// chunk-stock path, whose cross-lane pre-seeding is journaled for
// anti-message revocation on rollback.
func TestOptimisticForkJoin(t *testing.T) {
	run := func(exec abcl.Option) (int64, abcl.Report) {
		sys, err := abcl.NewSystem(abcl.WithNodes(6), abcl.WithSeed(5), exec)
		if err != nil {
			t.Fatal(err)
		}
		leaves, err := misc.RunForkJoinOn(sys, 6)
		if err != nil {
			t.Fatal(err)
		}
		return leaves, sys.Report()
	}
	seqLeaves, seqRep := run(abcl.WithExecutor(abcl.Sequential()))
	optLeaves, optRep := run(optExec())
	if seqLeaves != optLeaves {
		t.Errorf("leaf counts diverge: seq %d opt %d", seqLeaves, optLeaves)
	}
	if !reflect.DeepEqual(seqRep, optRep) {
		t.Errorf("fork-join reports diverge:\nseq %+v\nopt %+v", seqRep, optRep)
	}
}
