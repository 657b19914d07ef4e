package remote

import (
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Per-link packet batching.
//
// The AP1000-style interconnect charges a fixed launch latency (~1.5µs,
// NetConfig.FixedNs) for every hardware packet regardless of size, so the
// small 4-word messages of the paper waste most of a launch on framing. When
// batching is enabled (Options.BatchWindow > 0), wire records headed to the
// same destination node within one aggregation window — or until a byte
// budget fills — are coalesced into a single CatBatch packet: the fixed
// launch cost and the routing header are paid once, while per-byte and
// per-hop costs remain faithful to the records actually carried.
//
// The batch is pure framing. Each record keeps its own receive handler and
// controller hook; at the destination the container's controller hook runs
// every record's hook at the (shared) arrival instant, and its poll-time
// handler runs the records' software handlers in enqueue order. Per-link
// FIFO order is therefore preserved: records leave in enqueue order inside
// containers that the machine's per-(src,dst) arrival clamp keeps ordered.
//
// Batching is off by default, and the default path is byte-identical to the
// unbatched engine: Layer.send degenerates to machine.Node.Send.

// batchPerMsgBytes is the per-record framing inside a batch: a short
// kind/length tag replacing the full packet header of a standalone send.
const batchPerMsgBytes = 2

// batchHeaderSave is the wire saving per coalesced record: each record drops
// its own packet header, keeping only the tag.
const batchHeaderSave = packetHeaderBytes - batchPerMsgBytes

// DefaultBatchBytes caps a batch's payload when batching is enabled with a
// zero byte budget.
const DefaultBatchBytes = 512

// batcher is the machine-wide batching state: one lazily allocated linkBatch
// per (src, dst) pair that actually communicates. All per-link state is
// touched only from the sender's event lane, keeping parallel windows safe.
type batcher struct {
	l        *Layer
	window   sim.Time
	maxBytes int
	links    [][]*linkBatch // [src][dst]; inner slices allocated on first use
}

func newBatcher(l *Layer, window sim.Time, maxBytes int) *batcher {
	if maxBytes <= 0 {
		maxBytes = DefaultBatchBytes
	}
	return &batcher{
		l:        l,
		window:   window,
		maxBytes: maxBytes,
		links:    make([][]*linkBatch, l.rt.Nodes()),
	}
}

// linkBatch accumulates outbound records for one (src, dst) link until the
// window timer fires or the byte budget fills.
type linkBatch struct {
	b          *batcher
	mn         *machine.Node // sending node
	dst        int
	pkts       []*machine.Packet // pending records, in enqueue (= seq) order
	bytes      int               // sum of the records' standalone wire sizes
	firstClock sim.Time          // sender clock when the batch was opened
	maxClock   sim.Time          // latest sender clock among enqueued records
	timer      sim.Timer
	flushFn    func()
}

func (b *batcher) link(mn *machine.Node, dst int) *linkBatch {
	row := b.links[mn.ID]
	if row == nil {
		row = make([]*linkBatch, len(b.links))
		b.links[mn.ID] = row
	}
	lb := row[dst]
	if lb == nil {
		lb = &linkBatch{b: b, mn: mn, dst: dst}
		lb.flushFn = lb.flush
		row[dst] = lb
	}
	return lb
}

// enqueue defers pkt into the link's open batch, opening one (and arming its
// flush timer) if the link was idle.
func (b *batcher) enqueue(mn *machine.Node, pkt *machine.Packet) {
	lb := b.link(mn, int(pkt.Dst))
	// The window bounds the spread of the records' *write clocks*, not just
	// the flush timer: a long method body advances the processor clock far
	// beyond the lane's event time, and its flush timer cannot fire until the
	// event completes. Without this check every send of the body would share
	// one batch no matter how far apart the records were actually written.
	if len(lb.pkts) > 0 && mn.Clock > lb.firstClock+b.window {
		lb.flush()
	}
	if len(lb.pkts) == 0 {
		lb.firstClock = mn.Clock
		lb.maxClock = 0
		// The flush fires just after the writing event completes (the
		// sender's clock may run far ahead of its lane inside a method
		// body, so the deadline is measured from the record's write clock).
		// Holding the batch open for the full window instead would tax
		// every lone record with the window as pure latency; the records
		// worth coalescing are written close together in one body, and all
		// of those are enqueued before this timer can fire. The departure
		// is backdated to the last record's write clock in flush, so a
		// lone record leaves (virtually) when an unbatched send would
		// have. A timer left pending by an earlier flush of this link is
		// an earlier-than-window deadline; re-arming a pending timer is
		// illegal, and an early flush is merely conservative.
		if !lb.timer.Pending() {
			d := sim.Time(1)
			if ahead := mn.Clock - mn.EventNow(); ahead > 0 {
				d += ahead
			}
			b.l.m.Eng.StartTimer(mn.Lane(), mn.Lane(), &lb.timer, d, lb.flushFn)
		}
	}
	lb.pkts = append(lb.pkts, pkt)
	lb.bytes += int(pkt.Size)
	if mn.Clock > lb.maxClock {
		lb.maxClock = mn.Clock
	}
	if lb.bytes >= b.maxBytes {
		lb.flush()
	}
}

// flush launches the open batch. It runs from the window timer or a
// byte-budget overflow; a timer firing on an already-flushed link is a no-op.
func (lb *linkBatch) flush() {
	n := len(lb.pkts)
	if n == 0 {
		return
	}
	mn := lb.mn
	l := lb.b.l
	if mn.Down(mn.EventNow()) {
		// The sender crashed with this batch open: a dead node launches
		// nothing. The records stay queued; the restart's global restore
		// tears the batch down and replays what the restored cut still owes.
		return
	}
	// The batch departs when assembly completes: after the last record was
	// written, and no earlier than the deadline event itself. The launch is
	// the message controller's work, so no processor time is charged here —
	// each record's software cost was charged at its original send.
	at := lb.maxClock
	if ev := mn.EventNow(); ev > at {
		at = ev
	}
	if n == 1 {
		// A lone record gains nothing from framing: it departs as the
		// ordinary packet it already is, just window-delayed. It still
		// carries any acknowledgments owed to its destination — request/
		// reply traffic rarely fills a batch, but almost always has a
		// reverse-direction data packet for the ack to ride.
		p := lb.pkts[0]
		lb.reset()
		if l.rel != nil {
			p.Size += int32(l.rel.piggyback(mn, p, at))
		}
		mn.ControllerSend(at, p)
		return
	}
	wb := l.acquireBatch(mn.ID)
	wb.pkts = append(wb.pkts, lb.pkts...)
	size := packetHeaderBytes + lb.bytes - n*batchHeaderSave
	lb.reset()
	pkt := mn.AcquirePacket()
	pkt.Dst = int32(lb.dst)
	pkt.Category = CatBatch
	if l.rel != nil {
		// A reverse-direction batch carries any acknowledgments this node
		// owes the destination for free (plus a few bytes of framing).
		size += l.rel.piggyback(mn, pkt, at)
	}
	pkt.Size = int32(size)
	pkt.Msgs = int32(n)
	pkt.Payload = wb
	pkt.OnArrive = l.hBatchArr
	pkt.Handler = l.hBatchDel
	c := &l.rt.NodeRT(mn.ID).C
	c.BatchesSent++
	c.BatchedMsgs += uint64(n)
	if l.opt.Trace != nil {
		l.tracef(at, mn.ID, trace.EvBatch, "batch of %d records to n%d (%dB)", n, lb.dst, size)
	}
	mn.ControllerSend(at, pkt)
}

func (lb *linkBatch) reset() {
	for i := range lb.pkts {
		lb.pkts[i] = nil
	}
	lb.pkts = lb.pkts[:0]
	lb.bytes = 0
}

// wireBatch is the payload of a CatBatch packet: the coalesced records in
// enqueue order. A piggybacked acknowledgment rides in the container
// packet's transport header. Containers are pooled like wireMsg records:
// the sender fills one from its node's free list, the receiver recycles it
// into its own.
type wireBatch struct {
	pkts []*machine.Packet
}

func (l *Layer) acquireBatch(src int) *wireBatch {
	ns := l.nodes[src]
	if last := len(ns.batchFree) - 1; last >= 0 {
		wb := ns.batchFree[last]
		ns.batchFree[last] = nil
		ns.batchFree = ns.batchFree[:last]
		return wb
	}
	return &wireBatch{}
}

func (l *Layer) releaseBatch(dst int, wb *wireBatch) {
	wb.pkts = wb.pkts[:0]
	ns := l.nodes[dst]
	ns.batchFree = append(ns.batchFree, wb)
}

// handleBatchArrive runs at the destination's message controller the moment
// the batch lands: the piggybacked ack is processed and every record's
// controller hook (the reliable layer's ack generation) fires, exactly as if
// the record had arrived as its own packet at the same instant.
func (l *Layer) handleBatchArrive(rn *machine.Node, p *machine.Packet) {
	wb := p.Payload.(*wireBatch)
	if p.HasAck {
		l.rel.ackCumReceived(rn, int(p.Src), p.AckCum, p.AckSel)
	}
	for _, sub := range wb.pkts {
		sub.Src = p.Src
		sub.Arrival = p.Arrival
		if sub.OnArrive != nil {
			sub.OnArrive(rn, sub)
		}
	}
}

// handleBatchDeliver runs at poll time: every record's software handler runs
// in enqueue order. The processor pays full extraction for the first record
// (header parse, buffer management) and the reduced BatchRecvExtract for the
// rest; the discount is applied inside handleWire via the node's batchPos
// cursor.
func (l *Layer) handleBatchDeliver(rn *machine.Node, p *machine.Packet) {
	wb := p.Payload.(*wireBatch)
	ns := l.nodes[rn.ID]
	// Recycling the records and the container is only safe when the fault
	// model cannot have handed out a duplicate copy sharing this payload;
	// under faults — and under optimistic execution, where a rollback may
	// replay the delivery — both are left to the garbage collector.
	recycle := l.m.Faults() == nil && !l.optim
	for i, sub := range wb.pkts {
		ns.batchPos = i + 1
		if sub.Handler != nil {
			sub.Handler(rn, sub)
		}
		if recycle {
			rn.ReleasePacket(sub)
			wb.pkts[i] = nil
		}
	}
	ns.batchPos = 0
	if recycle {
		l.releaseBatch(rn.ID, wb)
	}
}

// send puts pkt on the physical wire: deferred into the destination link's
// open batch when batching is enabled, transmitted immediately otherwise.
// The boolean reports deferral, in which case the arrival time is not yet
// known (zero).
func (l *Layer) send(mn *machine.Node, pkt *machine.Packet) (sim.Time, bool) {
	if l.bat != nil && int(pkt.Dst) != mn.ID {
		l.bat.enqueue(mn, pkt)
		return 0, true
	}
	return mn.Send(pkt), false
}
