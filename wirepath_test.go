// Acceptance tests for the wire-path optimisations: per-link packet
// batching, coalesced acknowledgments and the remote-location cache.
//
// The contract has two sides. With the options off (the default), the engine
// must be byte-identical to the pre-batching wire path: no new counters
// tick, every logical message is its own hardware packet, and results are
// reproducible run to run. With the options on, answers and delivery
// guarantees are unchanged while the packet and ack counts drop.
package abcl_test

import (
	"testing"

	abcl "repro"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
)

// queensRun runs one N-queens instance on a fresh system built with opts.
func queensRun(t *testing.T, opts ...abcl.Option) (*abcl.System, nqueens.Result) {
	t.Helper()
	sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithNodes(16), abcl.WithSeed(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	d := nqueens.Build(sys, 7, 0)
	d.Start()
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	res, err := d.Result()
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

// With everything at defaults the new wire-path machinery must be inert:
// zero batches, zero coalesced acks, zero location-cache activity, and one
// hardware packet per logical message.
func TestWirePathDefaultsInert(t *testing.T) {
	sys, res := queensRun(t)
	if res.Solutions != 40 {
		t.Fatalf("N=7 solutions = %d, want 40", res.Solutions)
	}
	c := sys.Report().Sched.Counters
	if c.BatchesSent != 0 || c.BatchedMsgs != 0 {
		t.Errorf("default run sent %d batches (%d records), want none", c.BatchesSent, c.BatchedMsgs)
	}
	if c.AcksCoalesced != 0 || c.AcksSent != 0 {
		t.Errorf("default run produced ack traffic: sent=%d coalesced=%d", c.AcksSent, c.AcksCoalesced)
	}
	if c.LocCacheHits != 0 || c.LocCacheMisses != 0 || c.LocCacheInvalidates != 0 {
		t.Errorf("location cache active without migration: hits=%d misses=%d inval=%d",
			c.LocCacheHits, c.LocCacheMisses, c.LocCacheInvalidates)
	}
	wire := sys.Report().Wire
	if wire.BatchWindow != 0 || wire.BatchMaxBytes != 0 {
		t.Errorf("batch window = (%v, %d), want zeroes", wire.BatchWindow, wire.BatchMaxBytes)
	}
	if wire.Packets != wire.LogicalMsgs {
		t.Errorf("packets=%d logical msgs=%d: unbatched runs must map 1:1",
			wire.Packets, wire.LogicalMsgs)
	}
}

// Disabling the (inert) location cache must not perturb anything: virtual
// times, counters and answers stay byte-identical to the default run.
func TestWirePathEquivalence(t *testing.T) {
	sysA, resA := queensRun(t)
	sysB, resB := queensRun(t, abcl.WithoutLocationCache())
	// The report echoes the configuration under test; mask that one
	// deliberate difference so the comparison covers only run results.
	resB.Report.Wire.LocationCache = resA.Report.Wire.LocationCache
	if resA != resB {
		t.Errorf("WithoutLocationCache changed the result:\n%+v\nvs\n%+v", resA, resB)
	}
	repA, repB := sysA.Report(), sysB.Report()
	if a, b := repA.Sched.Elapsed, repB.Sched.Elapsed; a != b {
		t.Errorf("elapsed differs: %v vs %v", a, b)
	}
	if a, b := repA.Sched.Counters, repB.Sched.Counters; a != b {
		t.Errorf("counters differ:\n%+v\nvs\n%+v", a, b)
	}
	if a, b := repA.Wire.Packets, repB.Wire.Packets; a != b {
		t.Errorf("packet counts differ: %d vs %d", a, b)
	}
}

// Batching must preserve answers and object/message counts exactly, and be
// deterministic across repeated runs.
func TestWirePathBatchingDeterminism(t *testing.T) {
	_, plain := queensRun(t)
	sys1, run1 := queensRun(t, abcl.WithBatching(3*abcl.Microsecond, 0))
	sys2, run2 := queensRun(t, abcl.WithBatching(3*abcl.Microsecond, 0))

	if run1.Solutions != plain.Solutions || run1.Objects != plain.Objects || run1.Messages != plain.Messages {
		t.Errorf("batching changed the computation: batched %+v vs plain %+v", run1, plain)
	}
	if run1 != run2 {
		t.Errorf("batched runs diverge:\n%+v\nvs\n%+v", run1, run2)
	}
	rep1, rep2 := sys1.Report(), sys2.Report()
	if a, b := rep1.Sched.Counters, rep2.Sched.Counters; a != b {
		t.Errorf("batched counters diverge:\n%+v\nvs\n%+v", a, b)
	}
	if rep1.Sched.Counters.BatchesSent == 0 {
		t.Error("batching enabled but no batch was ever sent")
	}
	if rep1.Wire.Packets >= plain.Packets {
		t.Errorf("batched run launched %d packets, plain %d: no coalescing happened",
			rep1.Wire.Packets, plain.Packets)
	}
}

// The headline acceptance numbers, measured on the communication-dominated
// all-to-all exchange in reliable mode: batching + delayed acks must at
// least halve both the packets-per-message ratio and the standalone ack
// count, without touching delivery guarantees.
func TestWirePathPacketReduction(t *testing.T) {
	plain, err := misc.RunAllToAll(misc.AllToAllOptions{
		Nodes: 16, Rounds: 8,
		Opts: []abcl.Option{abcl.WithReliable()},
	})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := misc.RunAllToAll(misc.AllToAllOptions{
		Nodes: 16, Rounds: 8,
		Opts: []abcl.Option{
			abcl.WithReliable(),
			abcl.WithBatching(25*abcl.Microsecond, 0),
			abcl.WithDelayedAcks(25 * abcl.Microsecond),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// RunAllToAll already verified full delivery and per-link FIFO order for
	// both runs; here we compare the wire traffic.
	if plain.Stats.RelSent != tuned.Stats.RelSent {
		t.Fatalf("workloads diverge: %d vs %d reliable sends", plain.Stats.RelSent, tuned.Stats.RelSent)
	}
	if tuned.Packets*2 > plain.Packets {
		t.Errorf("packets: plain=%d tuned=%d, want at least a 2x reduction", plain.Packets, tuned.Packets)
	}
	if tuned.Stats.AcksSent*2 > plain.Stats.AcksSent {
		t.Errorf("ack packets: plain=%d tuned=%d, want at least a 2x reduction",
			plain.Stats.AcksSent, tuned.Stats.AcksSent)
	}
	if tuned.Stats.AcksCoalesced == 0 {
		t.Error("delayed acks on but nothing was coalesced")
	}
	if tuned.Stats.Retransmits != 0 {
		t.Errorf("%d spurious retransmits on a fault-free machine", tuned.Stats.Retransmits)
	}
}

// Reliable delivery with batching and delayed acks must survive a lossy,
// duplicating interconnect with no lost messages and no order violations.
func TestWirePathReliableBatchedUnderFaults(t *testing.T) {
	res, err := misc.RunAllToAll(misc.AllToAllOptions{
		Nodes: 8, Rounds: 6,
		Opts: []abcl.Option{
			abcl.WithFaults(abcl.UniformFaults(0.10, 0.10, 2*abcl.Microsecond)),
			abcl.WithBatching(25*abcl.Microsecond, 0),
			abcl.WithDelayedAcks(25 * abcl.Microsecond),
			abcl.WithSeed(7),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Stats
	if c.LostMessages() != 0 || c.RelAbandoned != 0 {
		t.Errorf("lost=%d abandoned=%d under faults, want 0/0", c.LostMessages(), c.RelAbandoned)
	}
	if c.Retransmits == 0 {
		t.Error("10%% drop produced no retransmits")
	}
	if c.BatchesSent == 0 || c.AcksCoalesced == 0 {
		t.Errorf("optimisations idle under faults: batches=%d coalesced=%d", c.BatchesSent, c.AcksCoalesced)
	}
}

// The remote-location cache short-circuits migration forwarders: after one
// forwarded message the sender learns the new address, and subsequent
// traffic goes direct instead of taking the forwarding hop.
func TestWirePathLocationCache(t *testing.T) {
	sys, err := abcl.NewSystem(abcl.WithNodes(3))
	if err != nil {
		t.Fatal(err)
	}
	inc := sys.Pattern("lc.inc", 0)
	kick := sys.Pattern("lc.kick", 0)
	counter := sys.Class("lc.counter", 1, func(ic *abcl.InitCtx) { ic.SetState(0, abcl.Int(0)) })
	counter.Method(inc, func(ctx *abcl.Ctx) {
		ctx.SetState(0, abcl.Int(ctx.State(0).Int()+1))
	})
	target := sys.NewObjectOn(0, counter)
	drv := sys.Class("lc.drv", 0, nil)
	drv.Method(kick, func(ctx *abcl.Ctx) {
		for j := 0; j < 20; j++ {
			ctx.SendPast(target, inc)
		}
	})
	d := sys.NewObjectOn(1, drv)
	sys.RT.Freeze()
	if err := sys.Net.Migrate(target.Obj, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}

	// First wave: every message goes to the stale address on node 0 and is
	// forwarded to node 2; the forwarder advertises the new address once.
	sys.Send(d, kick)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	c1 := sys.Report().Sched.Counters
	if c1.Forwards == 0 || c1.LocCacheMisses == 0 {
		t.Fatalf("first wave: forwards=%d adverts=%d, want both > 0", c1.Forwards, c1.LocCacheMisses)
	}

	// Second wave: the sender's cache rewrites every send to the new home.
	sys.Send(d, kick)
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	c2 := sys.Report().Sched.Counters
	if c2.LocCacheHits < 20 {
		t.Errorf("second wave: %d cache hits, want >= 20", c2.LocCacheHits)
	}
	if c2.Forwards != c1.Forwards {
		t.Errorf("second wave still forwarded: %d -> %d forwards", c1.Forwards, c2.Forwards)
	}
	if c2.LocCacheMisses != c1.LocCacheMisses {
		t.Errorf("steady state re-advertised: %d -> %d adverts", c1.LocCacheMisses, c2.LocCacheMisses)
	}
}

// With the cache disabled every post-migration message keeps paying the
// forwarding hop — the ablation baseline for the short-circuit.
func TestWirePathLocationCacheDisabled(t *testing.T) {
	sys, err := abcl.NewSystem(abcl.WithNodes(3), abcl.WithoutLocationCache())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Report().Wire.LocationCache {
		t.Fatal("Report().Wire.LocationCache = true after WithoutLocationCache")
	}
	inc := sys.Pattern("lc2.inc", 0)
	kick := sys.Pattern("lc2.kick", 0)
	counter := sys.Class("lc2.counter", 1, func(ic *abcl.InitCtx) { ic.SetState(0, abcl.Int(0)) })
	counter.Method(inc, func(ctx *abcl.Ctx) {
		ctx.SetState(0, abcl.Int(ctx.State(0).Int()+1))
	})
	target := sys.NewObjectOn(0, counter)
	drv := sys.Class("lc2.drv", 0, nil)
	drv.Method(kick, func(ctx *abcl.Ctx) {
		for j := 0; j < 20; j++ {
			ctx.SendPast(target, inc)
		}
	})
	d := sys.NewObjectOn(1, drv)
	sys.RT.Freeze()
	if err := sys.Net.Migrate(target.Obj, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		sys.Send(d, kick)
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	}
	c := sys.Report().Sched.Counters
	if c.Forwards != 40 {
		t.Errorf("forwards = %d, want 40 (every message takes the hop)", c.Forwards)
	}
	if c.LocCacheHits != 0 || c.LocCacheMisses != 0 {
		t.Errorf("cache disabled but active: hits=%d misses=%d", c.LocCacheHits, c.LocCacheMisses)
	}
}

// a2aBurst sets up an all-to-all program on a fresh system built with opts: every node's
// source object, kicked, sends rounds past-type messages to every other
// node's peer. The returned burst kicks every source and runs the system to
// quiescence; it can be called repeatedly.
func a2aBurst(t *testing.T, nodes, rounds int, opts ...abcl.Option) (burst func(), delivered func() int) {
	t.Helper()
	sys, err := abcl.NewSystem(append([]abcl.Option{abcl.WithNodes(nodes), abcl.WithSeed(1)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	hit := sys.Pattern("a2a.hit", 2)
	kick := sys.Pattern("a2a.kick", 0)
	got := 0
	peerCls := sys.Class("a2a.peer", 0, nil)
	peerCls.Method(hit, func(ctx *abcl.Ctx) { got++ })
	peers := make([]abcl.Address, nodes)
	for i := range peers {
		peers[i] = sys.NewObjectOn(i, peerCls)
	}
	srcCls := sys.Class("a2a.src", 0, nil)
	srcCls.Method(kick, func(ctx *abcl.Ctx) {
		me := ctx.NodeID()
		for d := range peers {
			if d == me {
				continue
			}
			for r := 0; r < rounds; r++ {
				ctx.SendPast(peers[d], hit, abcl.Int(int64(me)), abcl.Int(int64(r)))
			}
		}
	})
	srcs := make([]abcl.Address, nodes)
	for i := range srcs {
		srcs[i] = sys.NewObjectOn(i, srcCls)
	}
	burst = func() {
		for _, s := range srcs {
			sys.Send(s, kick)
		}
		if err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	}
	return burst, func() int { return got }
}

// TestWirePathBurstAllocs holds the all-to-all wire path to ROADMAP's
// allocation target of at most 0.1 heap objects per message, in two shapes.
// A repeated 1-round burst on one system measures the recycled steady state:
// packets, wire records, lane heaps and receive queues all come back from
// the previous burst. A fresh system's first 8-round burst measures the cold
// path, where nothing has been recycled yet and every record is carved from
// a per-node slab; one heap object per record would cost at least two per
// message here.
func TestWirePathBurstAllocs(t *testing.T) {
	const nodes, maxPerMsg = 128, 0.1
	msgs := func(rounds int) float64 { return float64(nodes * (nodes - 1) * rounds) }

	burst, delivered := a2aBurst(t, nodes, 1)
	if warm := testing.AllocsPerRun(4, burst) / msgs(1); warm > maxPerMsg {
		t.Errorf("repeated 1-round burst: %.3f allocs per message, want <= %.1f", warm, maxPerMsg)
	}
	if d := delivered(); d != 5*int(msgs(1)) {
		t.Fatalf("delivered %d messages, want %d", d, 5*int(msgs(1)))
	}

	// AllocsPerRun calls f once to warm up before the measured call, so the
	// cold measurement needs two fresh systems.
	var fresh []func()
	for i := 0; i < 2; i++ {
		b, _ := a2aBurst(t, nodes, 8)
		fresh = append(fresh, b)
	}
	next := 0
	cold := testing.AllocsPerRun(1, func() { fresh[next](); next++ }) / msgs(8)
	if cold > maxPerMsg {
		t.Errorf("first 8-round burst: %.3f allocs per message, want <= %.1f", cold, maxPerMsg)
	}
}

// TestWirePathReliableBurstAllocs holds the reliable wire path to the same
// 0.1 allocs/msg target in the warm shape: a repeated 1-round all-to-all
// burst on one 64-node system, under the reliable protocol alone and with
// delayed acks over a 2 % drop / 1 % dup wire. Every data copy, ack and
// piggybacked ack carries its protocol header in the packet, so the steady
// state builds no closure per packet; what remains is slab blocks for acks
// and duplicated copies, and the records of retransmitted messages.
func TestWirePathReliableBurstAllocs(t *testing.T) {
	const nodes, maxPerMsg = 64, 0.1
	msgs := float64(nodes * (nodes - 1))
	for _, c := range []struct {
		name string
		opts []abcl.Option
	}{
		{"reliable", []abcl.Option{abcl.WithReliable()}},
		{"lossy-delayed-acks", []abcl.Option{abcl.WithReliable(),
			abcl.WithDelayedAcks(50 * abcl.Microsecond),
			abcl.WithFaults(abcl.UniformFaults(0.02, 0.01, 0))}},
	} {
		t.Run(c.name, func(t *testing.T) {
			burst, delivered := a2aBurst(t, nodes, 1, c.opts...)
			warm := testing.AllocsPerRun(4, burst) / msgs
			t.Logf("%.3f allocs per message", warm)
			if warm > maxPerMsg {
				t.Errorf("repeated 1-round burst: %.3f allocs per message, want <= %.1f", warm, maxPerMsg)
			}
			if d := delivered(); d != 5*int(msgs) {
				t.Fatalf("delivered %d messages, want %d", d, 5*int(msgs))
			}
		})
	}
}
