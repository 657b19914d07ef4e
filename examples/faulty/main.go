// Faulty: run a workload on a machine whose interconnect drops, duplicates
// and delays packets, and watch the reliable-delivery layer repair every
// loss without any change to the method bodies.
//
// The same seed always reproduces the same faults, retries and final
// state — the whole run is deterministic in virtual time.
//
//	go run ./examples/faulty
package main

import (
	"fmt"
	"log"

	abcl "repro"
	"repro/internal/trace"
)

func main() {
	// 10% of packets dropped, 5% duplicated, up to 2µs of extra latency —
	// on every inter-node link. Configuring faults switches the inter-node
	// layer to its ack/retry protocol automatically. The observer ring keeps
	// the last 64 runtime events (sends, acks, retries, ...).
	events := trace.NewRing(64)
	sys, err := abcl.NewSystem(
		abcl.WithNodes(4),
		abcl.WithSeed(42),
		abcl.WithFaults(abcl.UniformFaults(0.10, 0.05, 2000)),
		abcl.WithObserver(events),
	)
	if err != nil {
		log.Fatal(err)
	}

	// A counting ring: each object increments the token and passes it on;
	// after laps full circles the last object reports the total.
	pass := sys.Pattern("pass", 1)
	report := sys.Pattern("report", 1)
	const members, laps = 8, 20

	var ring [members]abcl.Address
	var sink abcl.Address
	node := sys.Class("ring.node", 0, nil)
	node.Method(pass, func(ctx *abcl.Ctx) {
		count := ctx.Arg(0).Int() + 1
		if count >= members*laps {
			ctx.SendPast(sink, report, abcl.Int(count))
			return
		}
		next := ring[int(count)%members]
		ctx.SendPast(next, pass, abcl.Int(count))
	})

	var total int64 = -1
	collector := sys.Class("ring.sink", 0, nil)
	collector.Method(report, func(ctx *abcl.Ctx) { total = ctx.Arg(0).Int() })

	for i := range ring {
		ring[i] = sys.NewObjectOn(i%sys.Nodes(), node)
	}
	sink = sys.NewObjectOn(0, collector)
	sys.Send(ring[0], pass, abcl.Int(-1))

	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}

	rep := sys.Report()
	st := rep.Sched.Counters
	fmt.Printf("ring of %d objects, %d laps, over a lossy interconnect (seed %d)\n",
		members, laps, sys.Seed())
	fmt.Printf("  token count     %d (expected %d)\n", total, members*laps)
	fmt.Printf("  elapsed         %v\n", rep.Sched.Elapsed)
	fmt.Printf("  injected        drops=%d dups=%d\n", st.LinkDrops, st.LinkDups)
	fmt.Printf("  repaired        retransmits=%d dup-suppressed=%d reordered-held=%d\n",
		st.Retransmits, st.DupSuppressed, st.HeldOutOfOrder)
	fmt.Printf("  delivered       %d/%d reliable messages, lost=%d\n",
		st.RelDelivered, st.RelSent, st.LostMessages())
	fmt.Printf("  traced          %d runtime events (last %d kept)\n", events.Total(), events.Len())

	if total != members*laps {
		log.Fatalf("token count diverged: %d", total)
	}
	if st.LostMessages() != 0 {
		log.Fatalf("lost %d messages", st.LostMessages())
	}
}
