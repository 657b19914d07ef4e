// Package programs loads the benchmark's all-to-all and hot-key programs
// onto a caller-built System. They are the programs misc.RunAllToAll and
// hotkey.Run build, minus the option plumbing: those runners construct their
// System internally, and the benchmark needs the System itself to time
// construction apart from Run and to read the engine and machine counters
// afterwards. The benchmark's set-up checks that each program here produces
// the same virtual-time report as its internal/apps original, so the two
// cannot drift apart unnoticed.
package programs

import (
	"fmt"

	abcl "repro"
)

// AllToAll loads the exchange of misc.RunAllToAll: every node hosts one
// peer, and every node sends rounds numbered past-type messages to every
// other node's peer, destination-major. The returned check verifies the
// delivery count and per-sender FIFO order after Run.
func AllToAll(sys *abcl.System, rounds int) (check func() error) {
	p := sys.Nodes()
	received := make([]int64, p)
	violations := make([]int64, p)
	expected := make([][]int64, p)
	for i := range expected {
		expected[i] = make([]int64, p)
	}

	hit := sys.Pattern("a2a.hit", 2)
	kick := sys.Pattern("a2a.kick", 0)
	peerCls := sys.Class("a2a.peer", 0, nil)
	peerCls.Method(hit, func(ctx *abcl.Ctx) {
		me := ctx.NodeID()
		src := ctx.Arg(0).Int()
		seq := ctx.Arg(1).Int()
		received[me]++
		if seq != expected[me][src] {
			violations[me]++
		}
		expected[me][src] = seq + 1
	})
	peers := make([]abcl.Address, p)
	for i := range peers {
		peers[i] = sys.NewObjectOn(i, peerCls)
	}
	srcCls := sys.Class("a2a.src", 0, nil)
	srcCls.Method(kick, func(ctx *abcl.Ctx) {
		me := ctx.NodeID()
		for d := 0; d < p; d++ {
			if d == me {
				continue
			}
			for r := 0; r < rounds; r++ {
				ctx.SendPast(peers[d], hit, abcl.Int(int64(me)), abcl.Int(int64(r)))
			}
		}
	})
	for i := 0; i < p; i++ {
		sys.Send(sys.NewObjectOn(i, srcCls), kick)
	}

	return func() error {
		var got, bad int64
		for i := 0; i < p; i++ {
			got += received[i]
			bad += violations[i]
		}
		if want := int64(p) * int64(p-1) * int64(rounds); got != want {
			return fmt.Errorf("all-to-all delivered %d messages, want %d", got, want)
		}
		if bad != 0 {
			return fmt.Errorf("all-to-all observed %d FIFO order violations", bad)
		}
		return nil
	}
}

// Counter state indices, as in hotkey.
const (
	stValue  = 0
	stCursor = 1
	stReads  = 2
)

// HotKey loads the hot-key program of hotkey.Run with full coverage: a
// counter on node 0 with grouped reads and writes, one store shard on each
// other node, and closed-loop clients spread over nodes 1.. that each issue
// ops operations, one in every 100/writePct an add. The returned check
// verifies that every client finished and no update was lost.
func HotKey(sys *abcl.System, clients, ops, writePct int) (check func() error) {
	nodes := sys.Nodes()
	get := sys.Pattern("hk.get", 0)
	add := sys.Pattern("hk.add", 1)
	load := sys.Pattern("hk.load", 0)
	save := sys.Pattern("hk.save", 1)
	step := sys.Pattern("hk.step", 1)
	done := sys.Pattern("hk.done", 0)

	store := sys.NewClass("hk.store", 0, nil).
		Method(load, func(ctx *abcl.Ctx) {
			ctx.Charge(500)
			ctx.Reply(abcl.Int(0))
		}).
		Method(save, func(ctx *abcl.Ctx) {
			ctx.Charge(500)
			ctx.Reply(abcl.Int(0))
		})
	shards := make([]abcl.Address, nodes-1)
	for i := range shards {
		shards[i] = sys.NewObjectOn(i+1, store)
	}

	// hotkey.Run tracks the peak live-invocation count here; reading it is
	// part of the method body, so the benchmark keeps the read.
	maxLive := 0
	noteLive := func(ctx *abcl.Ctx) {
		if l := ctx.Self().Obj.LiveInvocations(); l > maxLive {
			maxLive = l
		}
	}
	nextShard := func(ctx *abcl.Ctx) abcl.Address {
		cur := ctx.State(stCursor).Int()
		ctx.SetState(stCursor, abcl.Int(cur+1))
		return shards[cur%int64(len(shards))]
	}
	counter := sys.NewClass("hk.counter", 3, func(ic *abcl.InitCtx) {
		ic.SetState(stValue, abcl.Int(0))
		ic.SetState(stCursor, abcl.Int(0))
		ic.SetState(stReads, abcl.Int(0))
	}).
		Method(get, func(ctx *abcl.Ctx) {
			noteLive(ctx)
			ctx.SendNow(nextShard(ctx), load, nil, func(ctx *abcl.Ctx, _ abcl.Value) {
				ctx.SetState(stReads, abcl.Int(ctx.State(stReads).Int()+1))
				ctx.Reply(ctx.State(stValue))
			})
		}).
		Method(add, func(ctx *abcl.Ctx) {
			noteLive(ctx)
			v := ctx.State(stValue).Int() + ctx.Arg(0).Int()
			ctx.SetState(stValue, abcl.Int(v))
			ctx.SendNow(nextShard(ctx), save, []abcl.Value{abcl.Int(v)}, func(ctx *abcl.Ctx, _ abcl.Value) {
				ctx.Reply(abcl.Int(v))
			})
		})
	counter.Group("reads", get).Group("writes", add).Priority("writes", 1)
	counterAddr := sys.NewObjectOn(0, counter)

	period := 100 / writePct
	var collector abcl.Address
	client := sys.NewClass("hk.client", 1, func(ic *abcl.InitCtx) {
		ic.SetState(0, ic.CtorArg(0))
	}).
		Method(step, func(ctx *abcl.Ctx) {
			rem := ctx.Arg(0).Int()
			if rem == 0 {
				ctx.SendPast(collector, done, ctx.State(0))
				return
			}
			next := abcl.Int(rem - 1)
			i := int64(ops) - rem
			if i%int64(period) == 0 {
				ctx.SendNow(counterAddr, add, []abcl.Value{abcl.Int(1)}, func(ctx *abcl.Ctx, _ abcl.Value) {
					ctx.SendPast(ctx.Self(), step, next)
				})
				return
			}
			ctx.SendNow(counterAddr, get, nil, func(ctx *abcl.Ctx, _ abcl.Value) {
				ctx.SendPast(ctx.Self(), step, next)
			})
		})
	reported := make([]bool, clients)
	finished := 0
	coll := sys.NewClass("hk.coll", 0, nil).
		Method(done, func(ctx *abcl.Ctx) {
			if id := int(ctx.Arg(0).Int()); !reported[id] {
				reported[id] = true
				finished++
			}
		})
	collector = sys.NewObjectOn(0, coll)

	addrs := make([]abcl.Address, clients)
	for i := range addrs {
		addrs[i] = sys.NewObjectOn(1+i%(nodes-1), client, abcl.Int(int64(i)))
	}
	for _, c := range addrs {
		sys.Send(c, step, abcl.Int(int64(ops)))
	}

	return func() error {
		if finished != clients {
			return fmt.Errorf("hotkey: %d of %d clients finished", finished, clients)
		}
		reads := counterAddr.Obj.State(stReads).Int()
		writes := counterAddr.Obj.State(stValue).Int()
		if got, want := reads+writes, int64(clients)*int64(ops); got != want {
			return fmt.Errorf("hotkey: completed %d ops, want %d", got, want)
		}
		if want := int64((ops+period-1)/period) * int64(clients); writes != want {
			return fmt.Errorf("hotkey: final value %d != %d expected writes (lost update)", writes, want)
		}
		return nil
	}
}
