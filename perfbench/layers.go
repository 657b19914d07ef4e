package main

import (
	"math"
	"time"

	abcl "repro"
)

// layerMetrics derives the per-layer metrics of the traced ops: counts of
// one op (rep and the engine counts every op repeated), each bucket's share
// of the CPU profile p, CPU nanoseconds per unit of a layer's work, GC
// figures from runtime/metrics deltas rt (in rtNames order), and the spans
// the benchmark recorded around its own calls.
func layerMetrics(b *bench, rep abcl.Report, p partition, rt [4]float64, untracedP50 float64, traced []op) map[string]metric {
	c := rep.Sched.Counters
	n := len(traced)
	// nsPer is a bucket's profiled CPU time per op, divided by the count of
	// the layer's work in one op.
	nsPer := func(bucket string, count uint64) float64 {
		return ratio(float64(p.nanos[bucket])/float64(n), float64(count))
	}
	dispatches := c.LocalMessages() + c.RemoteDelivers + c.Replies
	yield := ratio(float64(c.RemoteDelivers), float64(c.RemoteSends))
	if c.RelSent > 0 {
		yield = ratio(float64(c.RelDelivered), float64(c.RelSent+c.Retransmits))
	}
	span := func(f func(op) time.Duration) float64 { return quantile(millis(traced, f), 0.5) }
	tracedP50 := span(op.total)
	minTicks := int64(math.MaxInt64)
	for _, l := range buckets[:4] {
		minTicks = min(minTicks, p.ticks[l])
	}
	var sum float64
	var ticks int64
	for _, bk := range buckets {
		sum += p.frac(bk)
		ticks += p.ticks[bk]
	}
	count := func(x uint64) metric { return metric{float64(x), "count"} }
	frac := func(bucket string) metric { return metric{p.frac(bucket), "ratio"} }
	return map[string]metric{
		"sim.events":             count(b.fired),
		"sim.ns_per_event":       {nsPer(bucketSim, b.fired), "ns"},
		"sim.cpu_frac":           frac(bucketSim),
		"exec.windows":           count(b.windows),
		"exec.events_per_window": {ratio(float64(b.fired), float64(b.windows)), "count"},

		"machine.packets":       count(rep.Wire.Packets),
		"machine.bytes":         {float64(rep.Wire.Bytes), "B"},
		"machine.ns_per_packet": {nsPer(bucketMachine, rep.Wire.Packets), "ns"},
		"machine.cpu_frac":      frac(bucketMachine),

		"remote.records":         count(rep.Wire.LogicalMsgs),
		"remote.msgs_per_packet": {ratio(float64(rep.Wire.LogicalMsgs), float64(rep.Wire.Packets)), "ratio"},
		"remote.acks":            count(c.AcksSent),
		"remote.retransmits":     count(c.Retransmits),
		"remote.delivery_yield":  {yield, "ratio"},
		"remote.stock_hit_ratio": {ratio(float64(c.StockHits), float64(c.StockHits+c.StockMisses)), "ratio"},
		"remote.ns_per_record":   {nsPer(bucketRemote, rep.Wire.LogicalMsgs), "ns"},
		"remote.cpu_frac":        frac(bucketRemote),

		"core.dispatches":      count(dispatches),
		"core.dormant_frac":    {c.DormantFraction(), "ratio"},
		"core.heap_frames":     count(c.HeapFrames),
		"core.sched_enqueues":  count(c.SchedEnqueues),
		"core.ns_per_dispatch": {nsPer(bucketCore, dispatches), "ns"},
		"core.cpu_frac":        frac(bucketCore),

		"fault.drops": count(c.LinkDrops),
		"fault.dups":  count(c.LinkDups),

		"gc.cpu_frac":         {ratio(rt[0], rt[2]-rt[1]), "ratio"},
		"gc.profile_cpu_frac": frac(bucketGC),
		"gc.cycles_per_op":    {rt[3] / float64(n), "count"},
		"alloc.cpu_frac":      frac(bucketAlloc),
		"apps.cpu_frac":       frac(bucketApps),
		"other.cpu_frac":      frac(bucketOther),
		"cpu_frac.sum":        {sum, "ratio"},

		"profile.ticks":           {float64(ticks), "count"},
		"profile.min_layer_ticks": {float64(minTicks), "count"},

		"span.setup":  {span(func(o op) time.Duration { return o.Setup }), "ms"},
		"span.run":    {span(func(o op) time.Duration { return o.Run }), "ms"},
		"span.verify": {span(func(o op) time.Duration { return o.Verify }), "ms"},

		"trace.untraced_run_ms.p50": {untracedP50, "ms"},
		"trace.traced_run_ms.p50":   {tracedP50, "ms"},
		"trace.overhead_frac":       {ratio(tracedP50, untracedP50) - 1, "ratio"},
	}
}
