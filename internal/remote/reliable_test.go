package remote

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/stats"
)

// buildFaulty returns a runtime+layer over a machine with the given fault
// plan installed and the reliable protocol enabled.
func buildFaulty(t *testing.T, nodes int, plan fault.Plan, seed int64) (*core.Runtime, *Layer) {
	return buildFaultyOpts(t, nodes, plan, Options{
		StockDepth: 2, Placement: RoundRobin{}, Seed: seed, Reliable: true,
	}, seed)
}

// buildFaultyOpts is buildFaulty with full control over the layer options,
// for the batching/delayed-ack variants of the fault tests.
func buildFaultyOpts(t *testing.T, nodes int, plan fault.Plan, opt Options, seed int64) (*core.Runtime, *Layer) {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig(nodes))
	if err != nil {
		t.Fatal(err)
	}
	in, err := fault.NewInjector(plan, seed, nodes)
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaults(in)
	rt := core.NewRuntime(m, core.Options{})
	l := Attach(rt, opt)
	return rt, l
}

// counterStream is a two-node workload: node 0 sends numbered increments to
// a counter on node 1; the counter records arrival order.
func runCounterStream(t *testing.T, plan fault.Plan, seed int64, msgs int) ([]int64, *core.Runtime, *Layer) {
	t.Helper()
	rt, l := buildFaulty(t, 2, plan, seed)
	return runCounterStreamOn(t, rt, l, msgs)
}

func runCounterStreamOn(t *testing.T, rt *core.Runtime, l *Layer, msgs int) ([]int64, *core.Runtime, *Layer) {
	t.Helper()
	inc := rt.Reg.Register("rel.inc", 1)
	kick := rt.Reg.Register("rel.kick", 1)

	var order []int64
	var target core.Address
	cnt := rt.DefineClass("rel.counter", 0, nil)
	cnt.Method(inc, func(ctx *core.Ctx) { order = append(order, ctx.Arg(0).Int()) })
	snd := rt.DefineClass("rel.sender", 0, nil)
	snd.Method(kick, func(ctx *core.Ctx) {
		n := ctx.Arg(0).Int()
		for i := int64(0); i < n; i++ {
			ctx.SendPast(target, inc, core.IntV(i))
		}
	})

	target = rt.NewObjectOn(1, cnt)
	s := rt.NewObjectOn(0, snd)
	rt.Inject(s, kick, core.IntV(int64(msgs)))
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	return order, rt, l
}

func TestReliableExactlyOnceInOrder(t *testing.T) {
	// 20% drop + 15% duplication + jitter: every message must still arrive
	// exactly once and in send order.
	plan := fault.UniformLinks(0.20, 0.15, 3*sim.Microsecond)
	const msgs = 200
	order, rt, l := runCounterStream(t, plan, 11, msgs)
	if len(order) != msgs {
		t.Fatalf("delivered %d messages, want %d", len(order), msgs)
	}
	for i, v := range order {
		if v != int64(i) {
			t.Fatalf("order[%d] = %d: FIFO violated", i, v)
		}
	}
	c := rt.TotalStats()
	if c.LostMessages() != 0 || c.RelAbandoned != 0 {
		t.Errorf("lost=%d abandoned=%d, want 0/0", c.LostMessages(), c.RelAbandoned)
	}
	if c.Retransmits == 0 {
		t.Error("20% drop produced no retransmits")
	}
	if c.DupSuppressed == 0 {
		t.Error("duplication + retransmission produced no suppressed duplicates")
	}
	if l.rel.Unacked() != 0 {
		t.Errorf("%d messages still unacked at quiescence", l.rel.Unacked())
	}
}

func TestReliableCleanLinkNoRetries(t *testing.T) {
	// Protocol on, faults off: exactly-once trivially, zero retransmits,
	// one ack per message.
	order, rt, _ := runCounterStream(t, fault.Plan{}, 1, 50)
	if len(order) != 50 {
		t.Fatalf("delivered %d, want 50", len(order))
	}
	c := rt.TotalStats()
	if c.Retransmits != 0 || c.DupSuppressed != 0 || c.HeldOutOfOrder != 0 {
		t.Errorf("clean link: retransmits=%d dups=%d held=%d, want all 0",
			c.Retransmits, c.DupSuppressed, c.HeldOutOfOrder)
	}
	if c.AcksSent != c.RelSent {
		t.Errorf("acks=%d for %d messages", c.AcksSent, c.RelSent)
	}
}

func TestReliableSurvivesNodePause(t *testing.T) {
	// The receiver's processor pauses for 1ms right as traffic starts: its
	// message controller keeps acking, packets buffer, and every message is
	// still delivered exactly once in order when it wakes.
	plan := fault.UniformLinks(0.1, 0, 0).WithPause(1, 5*sim.Microsecond, sim.Millisecond)
	order, rt, _ := runCounterStream(t, plan, 5, 60)
	if len(order) != 60 {
		t.Fatalf("delivered %d messages, want 60", len(order))
	}
	for i, v := range order {
		if v != int64(i) {
			t.Fatalf("order[%d] = %d: FIFO violated across the pause", i, v)
		}
	}
	c := rt.TotalStats()
	if c.NodePauses == 0 {
		t.Error("pause window never took effect")
	}
	if c.LostMessages() != 0 {
		t.Errorf("lost %d messages across the pause", c.LostMessages())
	}
}

func TestReliableDeterminism(t *testing.T) {
	plan := fault.UniformLinks(0.25, 0.2, 5*sim.Microsecond)
	a, rta, _ := runCounterStream(t, plan, 42, 100)
	b, rtb, _ := runCounterStream(t, plan, 42, 100)
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	ca, cb := rta.TotalStats(), rtb.TotalStats()
	if ca != cb {
		t.Errorf("same seed+plan produced different counters:\n%+v\nvs\n%+v", ca, cb)
	}
}

func TestReliableRemoteCreationAndReplies(t *testing.T) {
	// Remote creation (chunk-stock refill) and now-type replies under 15%
	// drop: the fork-join style round trip must complete correctly.
	rt, _ := buildFaulty(t, 4, fault.UniformLinks(0.15, 0.1, 2*sim.Microsecond), 9)
	ask := rt.Reg.Register("rc.ask", 1)
	kick := rt.Reg.Register("rc.kick", 0)

	var sum int64
	var done int
	svc := rt.DefineClass("rc.svc", 0, nil)
	svc.Method(ask, func(ctx *core.Ctx) { ctx.Reply(core.IntV(ctx.Arg(0).Int() * 2)) })
	drv := rt.DefineClass("rc.drv", 0, nil)
	drv.Method(kick, func(ctx *core.Ctx) {
		// Create remotely (exercises chunk stock + create + refill under
		// faults), then do a now-type round trip with the created object.
		ctx.Create(svc, nil, func(ctx *core.Ctx, a core.Address) {
			ctx.SendNow(a, ask, []core.Value{core.IntV(21)}, func(ctx *core.Ctx, v core.Value) {
				sum += v.Int()
				done++
			})
		})
	})

	d := rt.NewObjectOn(0, drv)
	for i := 0; i < 8; i++ {
		rt.Inject(d, kick)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 8 || sum != 8*42 {
		t.Fatalf("done=%d sum=%d, want 8 replies summing to 336", done, sum)
	}
	c := rt.TotalStats()
	if c.LostMessages() != 0 || c.RelAbandoned != 0 {
		t.Errorf("lost=%d abandoned=%d", c.LostMessages(), c.RelAbandoned)
	}
}

func TestReliableMigrationUnderFaults(t *testing.T) {
	// Migration's state packet and ack both ride the reliable layer.
	rt, l := buildFaulty(t, 2, fault.UniformLinks(0.2, 0.1, 0), 13)
	poke := rt.Reg.Register("mg.poke", 0)
	var pokes int
	cl := rt.DefineClass("mg.obj", 1, func(ic *core.InitCtx) { ic.SetState(0, core.IntV(7)) })
	cl.Method(poke, func(ctx *core.Ctx) { pokes++ })

	a := rt.NewObjectOn(0, cl)
	rt.Inject(a, poke) // initialize
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	var newAddr core.Address
	if err := l.Migrate(a.Obj, 1, func(na core.Address) { newAddr = na }); err != nil {
		t.Fatal(err)
	}
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if newAddr.IsNil() || newAddr.Node != 1 {
		t.Fatalf("migration did not complete: %+v", newAddr)
	}
	// The old address still works (forwarder), across the faulty link.
	rt.Inject(a, poke)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if pokes != 2 {
		t.Fatalf("pokes = %d, want 2 (one pre-, one post-migration)", pokes)
	}
	if c := rt.TotalStats(); c.LostMessages() != 0 {
		t.Errorf("lost %d messages during migration", c.LostMessages())
	}
}

// wireOpts is the reliable protocol with the full wire path on: per-link
// batching plus delayed cumulative acks.
func wireOpts(seed int64) Options {
	return Options{
		StockDepth: 2, Placement: RoundRobin{}, Seed: seed, Reliable: true,
		BatchWindow: 10 * sim.Microsecond,
		AckDelay:    50 * sim.Microsecond,
	}
}

func TestReliableBatchedUnderFaults(t *testing.T) {
	// 10% drop + 10% duplication with batching and delayed acks on: the
	// exactly-once, in-order guarantee must be unchanged, and both
	// coalescing mechanisms must actually engage.
	plan := fault.UniformLinks(0.10, 0.10, 3*sim.Microsecond)
	const msgs = 300
	rt, l := buildFaultyOpts(t, 2, plan, wireOpts(17), 17)
	order, _, _ := runCounterStreamOn(t, rt, l, msgs)
	if len(order) != msgs {
		t.Fatalf("delivered %d messages, want %d", len(order), msgs)
	}
	for i, v := range order {
		if v != int64(i) {
			t.Fatalf("order[%d] = %d: FIFO violated under batching+faults", i, v)
		}
	}
	c := rt.TotalStats()
	if c.LostMessages() != 0 || c.RelAbandoned != 0 {
		t.Errorf("lost=%d abandoned=%d, want 0/0", c.LostMessages(), c.RelAbandoned)
	}
	if c.BatchesSent == 0 || c.AcksCoalesced == 0 {
		t.Errorf("batches=%d coalesced-acks=%d: wire-path options never engaged",
			c.BatchesSent, c.AcksCoalesced)
	}
	if l.rel.Unacked() != 0 {
		t.Errorf("%d messages still unacked at quiescence", l.rel.Unacked())
	}
}

func TestReliableBatchedDeterminism(t *testing.T) {
	// Batching + delayed acks under 10% drop + 10% dup: two runs with the
	// same seed and plan must produce identical deliveries and counters.
	plan := fault.UniformLinks(0.10, 0.10, 5*sim.Microsecond)
	run := func() ([]int64, stats.Counters) {
		rt, l := buildFaultyOpts(t, 2, plan, wireOpts(42), 42)
		order, _, _ := runCounterStreamOn(t, rt, l, 150)
		return order, rt.TotalStats()
	}
	a, ca := run()
	b, cb := run()
	if len(a) != len(b) {
		t.Fatalf("delivery counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order diverges at %d: %d vs %d", i, a[i], b[i])
		}
	}
	if ca != cb {
		t.Errorf("same seed+plan produced different counters:\n%+v\nvs\n%+v", ca, cb)
	}
}

func TestReliableDelayedAcksReduceAckTraffic(t *testing.T) {
	// On a clean link, immediate mode sends one ack per message; the
	// delayed-ack timer must cut that by at least half on the same stream.
	immediate, rtI, _ := runCounterStream(t, fault.Plan{}, 3, 200)
	rtD, l := buildFaultyOpts(t, 2, fault.Plan{}, wireOpts(3), 3)
	delayed, _, _ := runCounterStreamOn(t, rtD, l, 200)
	if len(immediate) != 200 || len(delayed) != 200 {
		t.Fatalf("deliveries: immediate=%d delayed=%d, want 200/200", len(immediate), len(delayed))
	}
	ci, cd := rtI.TotalStats(), rtD.TotalStats()
	if cd.AcksSent*2 > ci.AcksSent {
		t.Errorf("delayed acks sent %d ack packets vs %d immediate: want <= half",
			cd.AcksSent, ci.AcksSent)
	}
	if cd.Retransmits != 0 {
		t.Errorf("clean link with delayed acks produced %d retransmits", cd.Retransmits)
	}
}

func TestLoadHorizonStaleness(t *testing.T) {
	// A piggybacked load sample is trusted inside the horizon and treated
	// as unknown (staleLoad) beyond it.
	m, err := machine.New(machine.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(m, core.Options{})
	l := Attach(rt, Options{
		StockDepth: 2, Placement: RoundRobin{}, Seed: 1,
		LoadHorizon: 100 * sim.Microsecond,
	})
	ns := l.nodes[0]
	if got := ns.knownLoad(1, l); got != staleLoad {
		t.Errorf("no sample yet: knownLoad = %d, want staleLoad", got)
	}
	l.noteLoad(0, 1, 7, 50*sim.Microsecond)
	m.Node(0).Clock = 120 * sim.Microsecond // sample age 70µs < horizon
	if got := ns.knownLoad(1, l); got != 7 {
		t.Errorf("fresh sample: knownLoad = %d, want 7", got)
	}
	m.Node(0).Clock = 200 * sim.Microsecond // sample age 150µs > horizon
	if got := ns.knownLoad(1, l); got != staleLoad {
		t.Errorf("expired sample: knownLoad = %d, want staleLoad", got)
	}
}

func TestLocationCacheInvalidate(t *testing.T) {
	// A newer advertised location for an already-cached object overwrites
	// the old entry and counts an invalidation.
	m, err := machine.New(machine.DefaultConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	rt := core.NewRuntime(m, core.Options{})
	l := Attach(rt, Options{StockDepth: 2, Placement: RoundRobin{}, Seed: 1})
	stale := core.Address{Node: 1, Obj: &core.Object{}}
	freshA := core.Address{Node: 2, Obj: &core.Object{}}
	freshB := core.Address{Node: 0, Obj: &core.Object{}}
	mn := m.Node(0)
	l.learnLocation(mn, stale, freshA)
	l.learnLocation(mn, stale, freshA) // same fact: no invalidation
	if c := rt.NodeRT(0).C.LocCacheInvalidates; c != 0 {
		t.Fatalf("re-learning the same location counted %d invalidations", c)
	}
	l.learnLocation(mn, stale, freshB)
	if c := rt.NodeRT(0).C.LocCacheInvalidates; c != 1 {
		t.Errorf("overwrite counted %d invalidations, want 1", c)
	}
	if got := l.nodes[0].locCache[stale]; got != freshB {
		t.Errorf("cache maps stale object to %+v, want %+v", got, freshB)
	}
}

// lateDup duplicates the first data copy on the 0 -> 1 link and delays the
// extra copy by delay; everything else is delivered normally.
type lateDup struct {
	delay sim.Time
	done  bool
}

func (f *lateDup) Link(src, dst int, at sim.Time, size int) (int, [2]sim.Time) {
	if src == 0 && dst == 1 && !f.done {
		f.done = true
		return 2, [2]sim.Time{0, f.delay}
	}
	return 1, [2]sim.Time{}
}

func (f *lateDup) PausedUntil(node int, at sim.Time) sim.Time { return at }

// A straggler copy must be judged by its own header, not by the sender's
// record: the late duplicate of seq 0 arrives after seq 0 was acked and its
// relMsg recycled for seq 1, and is suppressed rather than delivered.
func TestReliableLateDuplicateAfterRecycle(t *testing.T) {
	m, err := machine.New(machine.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaults(&lateDup{delay: 500 * sim.Microsecond})
	rt := core.NewRuntime(m, core.Options{})
	l := Attach(rt, Options{StockDepth: 2, Placement: RoundRobin{}, Seed: 1, Reliable: true})
	inc := rt.Reg.Register("late.inc", 1)
	kick := rt.Reg.Register("late.kick", 1)
	var order []int64
	var target core.Address
	cnt := rt.DefineClass("late.counter", 0, nil)
	cnt.Method(inc, func(ctx *core.Ctx) { order = append(order, ctx.Arg(0).Int()) })
	snd := rt.DefineClass("late.sender", 0, nil)
	snd.Method(kick, func(ctx *core.Ctx) { ctx.SendPast(target, inc, ctx.Arg(0)) })
	target = rt.NewObjectOn(1, cnt)
	s := rt.NewObjectOn(0, snd)

	// Seq 0: delivered and acked long before its late copy lands, and its
	// stopped retransmission slot has popped, so the record is reusable.
	rt.Inject(s, kick, core.IntV(0))
	rt.Freeze()
	const second = 300 * sim.Microsecond
	if _, err := m.Eng.RunUntil(second); err != nil {
		t.Fatal(err)
	}
	rs := &l.rel.nodes[0]
	if len(order) != 1 || len(rs.retired)+len(rs.free) != 1 {
		t.Fatalf("before seq 1: delivered %v, %d idle records; want [0] and 1", order, len(rs.retired)+len(rs.free))
	}
	rec := slices.Concat(rs.retired, rs.free)[0]

	// Seq 1 reuses the record, then the seq-0 straggler arrives.
	m.Node(0).SyncClock(second)
	rt.Inject(s, kick, core.IntV(1))
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("delivered %v, want [0 1]", order)
	}
	if idle := slices.Concat(rs.retired, rs.free); len(idle) != 1 || idle[0] != rec {
		t.Fatalf("seq 1 did not reuse seq 0's record (%d idle records)", len(idle))
	}
	c := rt.TotalStats()
	if c.DupSuppressed != 1 || c.RelDelivered != 2 || c.LinkDups != 1 {
		t.Errorf("dups suppressed=%d delivered=%d link dups=%d, want 1/2/1",
			c.DupSuppressed, c.RelDelivered, c.LinkDups)
	}
}

// Per-link protocol records are allocated on a link's first packet, not
// when the layer is built: a 256-node system carries 65,280 directed links,
// of which a run typically uses a small fraction.
func TestReliableLinkRecordsAreLazy(t *testing.T) {
	const nodes = 256
	rt, l := buildFaultyOpts(t, nodes, fault.Plan{}, Options{
		StockDepth: 2, Placement: RoundRobin{}, Seed: 1, Reliable: true,
		AckDelay: 50 * sim.Microsecond,
	}, 1)
	links := func() (rows, recs int) {
		for i := range l.rel.nodes {
			if row := l.rel.nodes[i].links; row != nil {
				rows++
				for _, lk := range row {
					if lk != nil {
						recs++
					}
				}
			}
		}
		return rows, recs
	}
	if rows, recs := links(); rows != 0 || recs != 0 {
		t.Fatalf("before the first send: %d link rows, %d records; want none", rows, recs)
	}
	inc := rt.Reg.Register("lazy.inc", 0)
	kick := rt.Reg.Register("lazy.kick", 0)
	var target core.Address
	cnt := rt.DefineClass("lazy.counter", 0, nil)
	cnt.Method(inc, func(ctx *core.Ctx) {})
	snd := rt.DefineClass("lazy.sender", 0, nil)
	snd.Method(kick, func(ctx *core.Ctx) { ctx.SendPast(target, inc) })
	target = rt.NewObjectOn(1, cnt)
	rt.Inject(rt.NewObjectOn(0, snd), kick)
	if err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// One message: the sender's record for the receiver, and the receiver's
	// for the sender.
	if rows, recs := links(); rows != 2 || recs != 2 {
		t.Errorf("after one message: %d link rows, %d records; want 2 and 2", rows, recs)
	}
}
