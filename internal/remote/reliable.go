package remote

import (
	"fmt"
	"slices"

	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Reliable delivery over a faulty interconnect.
//
// The paper assumes the AP1000's hardware delivers every packet exactly once
// and in per-link FIFO order, and the whole runtime above (message
// transmission, chunk-stock refill, reply delivery, migration) leans on that
// guarantee. When the machine injects link faults, this file restores the
// same contract in software so no method-body code changes:
//
//   - every data packet (categories 1-4) carries a per-(src,dst) sequence
//     number (relHeaderBytes on the wire);
//   - the sender keeps the packet until acknowledged, retransmitting on an
//     exponential-backoff timer in virtual time;
//   - the receiver acknowledges every copy it sees, suppresses duplicates,
//     and holds out-of-order arrivals until the gap fills, delivering
//     strictly in sequence order per link.
//
// Acks are plain packets (category 5) outside the protocol: a lost ack is
// repaired by the data retransmission it fails to cancel, and a duplicated
// ack is idempotent at the sender. In-order delivery means the handlers
// above observe exactly the fault-free machine's semantics — only timing
// and packet counts differ.
//
// With Options.AckDelay set, per-copy acks are replaced by *cumulative*
// acknowledgments: the receiver's controller records which sequence numbers
// have physically arrived per inbound link and, on a delayed-ack timer (or
// piggybacked on a reverse-direction batch), tells the sender "everything
// below cum has arrived, plus these out-of-order seqs". Dedup, reordering
// and retransmission semantics are unchanged — only the ack traffic shrinks.
//
// The protocol header (sequence number, cumulative ack, selective acks)
// rides in the packet's own transport-header fields, and every data copy,
// ack and piggybacked ack is interpreted by one of three handlers bound
// when the layer is built: the steady-state wire path allocates nothing per
// packet. All per-peer state of a node lives in one relLink record per
// (node, peer) pair, allocated on the first packet either way and touched
// only on that node's lane.

// relHeaderBytes models the sequence number + flags added to every reliable
// data packet.
const relHeaderBytes = 8

// ackBytes is the wire size of an acknowledgment packet.
const ackBytes = packetHeaderBytes + 8

// maxSelAcks caps the selective (out-of-order) seq list carried by one
// cumulative acknowledgment; arrivals beyond the cap are re-acked by a later
// ack or repaired by retransmission.
const maxSelAcks = 32

// relMsg is one unacknowledged in-flight message at its sender. Records are
// pooled per sender: the retransmission timer is embedded (re-armed in place,
// never reallocated) and retryFn is built once, on first allocation. Every
// transmitted copy carries seq and payload in its own packet, so a straggler
// copy stays correct after its record is recycled.
type relMsg struct {
	dst      int
	seq      uint64
	size     int32 // wire size including relHeaderBytes
	category uint8
	acked    bool
	attempts int
	payload  any // forwarded to every attempt's packet
	timer    sim.Timer
	retryFn  func()
}

// relRing holds a link's in-flight messages indexed by sequence number:
// seq lives in slot seq&(len(buf)-1), and every in-flight seq lies in
// [lo, hi), a span no longer than the ring. Sends fill slots at the top,
// acks clear them, and lo advances past cleared slots, so buf[lo] is in
// flight whenever n > 0 and a cumulative ack walks the messages it covers
// in seq order.
type relRing struct {
	buf    []*relMsg // a power of two in length once the link has sent
	lo, hi uint64    // bounds of the in-flight seqs while n > 0
	n      int       // messages in flight
}

// get returns the in-flight message with sequence number seq, or nil.
func (q *relRing) get(seq uint64) *relMsg {
	if q.n == 0 || seq < q.lo || seq >= q.hi {
		return nil
	}
	return q.buf[seq&uint64(len(q.buf)-1)]
}

// put records m as in flight under its seq. Sends arrive in ascending seq
// order; a checkpoint replay may re-pend seqs below messages the restored
// timeline has already sent, or a seq that is already pending — m then
// takes over the slot, and the displaced record is left to its own
// retransmission timer.
func (q *relRing) put(m *relMsg) {
	switch {
	case q.n == 0:
		q.lo, q.hi = m.seq, m.seq+1
	case m.seq < q.lo:
		q.lo = m.seq
	case m.seq >= q.hi:
		q.hi = m.seq + 1
	}
	for q.hi-q.lo > uint64(len(q.buf)) {
		q.grow()
	}
	slot := &q.buf[m.seq&uint64(len(q.buf)-1)]
	if *slot == nil {
		q.n++
	}
	*slot = m
}

// grow doubles the ring, re-slotting every in-flight message.
func (q *relRing) grow() {
	old := q.buf
	q.buf = make([]*relMsg, 2*len(old))
	for _, m := range old {
		if m != nil {
			q.buf[m.seq&uint64(len(q.buf)-1)] = m
		}
	}
}

// remove clears the slot of an in-flight seq and advances lo past any
// cleared slots.
func (q *relRing) remove(seq uint64) {
	mask := uint64(len(q.buf) - 1)
	q.buf[seq&mask] = nil
	q.n--
	for q.n > 0 && q.buf[q.lo&mask] == nil {
		q.lo++
	}
}

// relLink is what one node keeps about one peer: the sending half of the
// outbound link, the receiving half of the inbound link, and the
// delayed-ack ledger of the inbound link. All of it is touched only on the
// owning node's lane: sends, retransmission timers and arriving acks of the
// outbound link run there, and so do arrivals on the inbound link.
type relLink struct {
	// Sending half (this node -> peer).
	nextSeq  uint64
	inflight relRing

	// Receiving half (peer -> this node): the delivery cursor and the
	// reorder buffer of copies that arrived beyond a gap.
	nextExpected uint64
	held         map[uint64]*machine.Packet

	// Delayed-ack ledger of the inbound link (AckDelay > 0 only).
	cum       uint64   // every seq < cum has arrived here
	above     []uint64 // sorted arrived seqs beyond a gap
	owed      int      // arrivals not yet acknowledged
	owedSince sim.Time // arrival time of the first owed copy
}

// relNode is one node's protocol state: its per-peer link records, the
// relMsg recycling pool and the delayed-ack schedule.
type relNode struct {
	links    []*relLink // by peer; the slice and each record allocated on first use
	linkSlab slab.Slab[relLink]
	ringSlab slab.Slab[[8]*relMsg] // first in-flight ring of each sending link
	msgSlab  slab.Slab[relMsg]     // fresh relMsg records once free is empty

	free []*relMsg // reusable records whose timer slot is resolved
	// retired holds acknowledged records whose stopped timer slot is still
	// queued in the lane heap; they migrate to free once the slot is popped
	// or swept (re-arming a still-queued timer is illegal).
	retired []*relMsg

	// noPool disables record recycling (optimistic execution): a rollback
	// restores in-flight records through their original pointers, which a
	// speculative release-and-reuse would alias to a different message.
	noPool bool

	// Delayed acks: peers whose inbound link owes acks, in first-owed
	// order, and the timer that emits them (ackFire is bound on first use).
	owedTo   []int
	ackTimer sim.Timer
	ackFire  func()
}

// reliable is the machine-wide protocol state (one instance per Layer).
type reliable struct {
	l           *Layer
	rto         sim.Time
	maxBackoff  sim.Time
	maxAttempts int
	ackDelay    sim.Time // > 0 enables cumulative delayed acks
	nodes       []relNode

	// The protocol's packet handlers, bound once: hArrive and hDeliver are
	// the controller hook and poll handler of every data copy, hAck the
	// controller hook of every standalone ack.
	hArrive  func(*machine.Node, *machine.Packet)
	hDeliver func(*machine.Node, *machine.Packet)
	hAck     func(*machine.Node, *machine.Packet)
}

func newReliable(l *Layer) *reliable {
	r := &reliable{
		l:           l,
		rto:         l.opt.RetryTimeout,
		maxBackoff:  l.opt.MaxBackoff,
		maxAttempts: l.opt.MaxAttempts,
		ackDelay:    max(l.opt.AckDelay, 0),
		nodes:       make([]relNode, l.rt.Nodes()),
	}
	if r.rto <= 0 {
		r.rto = DefaultRetryTimeout
	}
	if r.maxBackoff < r.rto {
		r.maxBackoff = DefaultMaxBackoff
	}
	if r.maxAttempts <= 0 {
		r.maxAttempts = DefaultMaxAttempts
	}
	r.hArrive = r.dataArrived
	r.hDeliver = r.dataDelivered
	r.hAck = r.ackArrived
	return r
}

// link returns node's record for peer, allocating it on first use.
func (r *reliable) link(node, peer int) *relLink {
	rn := &r.nodes[node]
	if rn.links == nil {
		rn.links = make([]*relLink, len(r.nodes))
	}
	lk := rn.links[peer]
	if lk == nil {
		lk = rn.linkSlab.New()
		rn.links[peer] = lk
	}
	return lk
}

// acquireMsg returns a recycled relMsg, or a new one from newMsg.
func (r *reliable) acquireMsg(mn *machine.Node) *relMsg {
	s := &r.nodes[mn.ID]
	if s.noPool {
		return r.newMsg(mn)
	}
	if len(s.retired) > 0 {
		kept := s.retired[:0]
		for _, m := range s.retired {
			if m.timer.Pending() {
				kept = append(kept, m)
			} else {
				s.free = append(s.free, m)
			}
		}
		clear(s.retired[len(kept):])
		s.retired = kept
	}
	if n := len(s.free); n > 0 {
		m := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return m
	}
	return r.newMsg(mn)
}

// newMsg carves a record from the sender's slab and binds its retry
// closure to the sender's node.
func (r *reliable) newMsg(mn *machine.Node) *relMsg {
	m := r.nodes[mn.ID].msgSlab.New()
	m.retryFn = func() { r.retry(mn, m) }
	return m
}

// pend records m as in flight on node's link lk, carving the link's first
// ring buffer from the node's slab.
func (r *reliable) pend(node int, lk *relLink, m *relMsg) {
	if lk.inflight.buf == nil {
		lk.inflight.buf = r.nodes[node].ringSlab.New()[:]
	}
	lk.inflight.put(m)
}

// finish removes a completed (acked or torn-down) record from its link's
// in-flight ring and recycles it.
func (r *reliable) finish(node int, lk *relLink, m *relMsg) {
	lk.inflight.remove(m.seq)
	r.release(node, m)
}

// release recycles a record that is no longer in flight.
func (r *reliable) release(node int, m *relMsg) {
	m.payload = nil
	s := &r.nodes[node]
	if s.noPool {
		return
	}
	if m.timer.Pending() {
		s.retired = append(s.retired, m)
		return
	}
	s.free = append(s.free, m)
}

// send assigns the next sequence number on the (src, dst) link, records the
// message as in-flight, and transmits the first copy. Same-node packets (the
// machine would loop them back untouched) skip the protocol.
func (r *reliable) send(mn *machine.Node, pkt *machine.Packet) {
	src, dst := mn.ID, int(pkt.Dst)
	if src == dst {
		mn.Send(pkt)
		return
	}
	lk := r.link(src, dst)
	m := r.acquireMsg(mn)
	m.dst = dst
	m.seq = lk.nextSeq
	lk.nextSeq++
	m.size = pkt.Size + relHeaderBytes
	m.category = pkt.Category
	m.payload = pkt.Payload
	m.attempts = 0
	m.acked = false
	// Per-attempt copies are built in xmit; the caller's packet is done.
	mn.ReleasePacket(pkt)
	r.pend(src, lk, m)
	if r.l.ck != nil {
		r.l.ck.retain(src, dst, m)
	}
	r.l.rt.NodeRT(src).C.RelSent++
	r.xmit(mn, m)
}

// xmit transmits one copy of m and arms the retransmission timer for the
// current attempt.
func (r *reliable) xmit(mn *machine.Node, m *relMsg) {
	p := mn.AcquirePacket()
	p.Dst = int32(m.dst)
	p.Size = m.size
	p.Category = m.category
	p.Payload = m.payload
	p.Seq = m.seq
	// The receiving message controller acknowledges every physical copy
	// the instant it arrives, independent of how backlogged or paused the
	// receiving processor is.
	p.OnArrive = r.hArrive
	p.Handler = r.hDeliver
	arrival, batched := r.l.send(mn, p)
	backoff := r.rto << uint(m.attempts)
	if backoff > r.maxBackoff || backoff <= 0 {
		backoff = r.maxBackoff
	}
	// Time out relative to the copy's scheduled arrival (which includes
	// link queueing), not the send instant — a congested link must not
	// trigger spurious retransmissions. A dropped copy times out from now.
	// Delayed acks and batching defer the acknowledgment further: budget
	// the ack delay, and for a batched copy (whose departure is unknown
	// until its batch flushes) the full window plus the wire latency.
	delay := backoff + r.ackDelay
	if batched {
		// The copy departs with its batch: no later than the record's write
		// clock plus the window (the batcher bounds the clock spread), plus
		// the wire time of a full batch as a conservative transit bound.
		delay += r.l.bat.window + r.l.m.Cfg.Net.Latency(mn.Hops(m.dst), r.l.bat.maxBytes)
		if ahead := mn.Clock - mn.EventNow(); ahead > 0 {
			delay += ahead
		}
	} else if now := mn.EventNow(); arrival > now {
		delay += arrival - now
	}
	r.l.m.Eng.StartTimer(mn.Lane(), mn.Lane(), &m.timer, delay, m.retryFn)
}

// retry fires when the ack timer expires: retransmit with backoff, or
// abandon the message past the attempt limit.
func (r *reliable) retry(mn *machine.Node, m *relMsg) {
	if m.acked {
		return
	}
	if mn.Down(mn.EventNow()) {
		// The sender is inside a crash outage: a dead node transmits nothing.
		// The record stays pending; the restart's global restore re-pends and
		// retransmits everything the restored cut still owes.
		return
	}
	c := &r.l.rt.NodeRT(mn.ID).C
	if m.attempts+1 >= r.maxAttempts {
		// Give up loudly: the message counts as lost so scenario assertions
		// and LostMessages() surface it.
		c.RelAbandoned++
		if r.l.opt.Trace != nil {
			r.l.tracef(mn.EventNow(), mn.ID, trace.EvRetry,
				"abandon seq %d to n%d after %d attempts", m.seq, m.dst, r.maxAttempts)
		}
		if q := &r.nodes[mn.ID].links[m.dst].inflight; q.get(m.seq) != nil {
			q.remove(m.seq)
		}
		r.release(mn.ID, m)
		return
	}
	m.attempts++
	c.Retransmits++
	// The timer expired on a possibly idle node: bring its clock up to the
	// timeout instant, then charge the software cost of the retransmission.
	mn.SyncClock(mn.EventNow())
	mn.Charge(r.l.cost().RemoteSendSetup)
	if np := r.l.prof(mn.ID); np != nil {
		np.ChargeInstr(profile.Retransmit, r.l.cost().RemoteSendSetup, mn.Now())
		np.Packet(profile.Retransmit, int(m.size), mn.Now())
	}
	if r.l.opt.Trace != nil {
		r.l.tracef(mn.Now(), mn.ID, trace.EvRetry,
			"retransmit seq %d to n%d (attempt %d)", m.seq, m.dst, m.attempts+1)
	}
	r.xmit(mn, m)
}

// dataArrived is the controller hook of every data copy: process the ack
// it piggybacks, if any, then acknowledge the copy itself — immediately, or
// into the delayed-ack ledger.
func (r *reliable) dataArrived(rn *machine.Node, p *machine.Packet) {
	src := int(p.Src)
	if p.HasAck {
		r.ackCumReceived(rn, src, p.AckCum, p.AckSel)
	}
	if r.ackDelay > 0 {
		r.noteArrival(rn, src, p.Seq)
	} else {
		r.sendAck(rn, src, p.Seq, p.Arrival)
	}
}

// dataDelivered is the poll handler of every data copy.
func (r *reliable) dataDelivered(rn *machine.Node, p *machine.Packet) {
	r.receive(rn, int(p.Src), p.Seq, p)
}

// receive runs at the receiver for every delivered copy of a data packet:
// suppress duplicates, and deliver in sequence order.
func (r *reliable) receive(rn *machine.Node, src int, seq uint64, pkt *machine.Packet) {
	lk := r.link(rn.ID, src)
	c := &r.l.rt.NodeRT(rn.ID).C

	next := lk.nextExpected
	switch {
	case seq < next:
		c.DupSuppressed++
		if r.l.opt.Trace != nil {
			r.l.tracef(rn.Now(), rn.ID, trace.EvDupMsg, "drop dup seq %d from n%d", seq, src)
		}
		return
	case seq == next:
		r.deliver(rn, c, pkt)
		lk.nextExpected++
		// Flush any consecutive held messages the gap was blocking.
		for len(lk.held) > 0 {
			h, ok := lk.held[lk.nextExpected]
			if !ok {
				break
			}
			delete(lk.held, lk.nextExpected)
			r.deliver(rn, c, h)
			lk.nextExpected++
		}
	default: // seq > next: a gap — hold for in-order delivery
		if _, dup := lk.held[seq]; dup {
			c.DupSuppressed++
			if r.l.opt.Trace != nil {
				r.l.tracef(rn.Now(), rn.ID, trace.EvDupMsg, "drop dup held seq %d from n%d", seq, src)
			}
			return
		}
		if lk.held == nil {
			lk.held = make(map[uint64]*machine.Packet)
		}
		// The packet outlives this handler; keep it out of the pool.
		pkt.Retain()
		lk.held[seq] = pkt
		c.HeldOutOfOrder++
		if r.l.opt.Trace != nil {
			r.l.tracef(rn.Now(), rn.ID, trace.EvHold,
				"hold seq %d from n%d (awaiting %d)", seq, src, next)
		}
	}
}

// deliver hands one in-order message to the layer's receive handler.
func (r *reliable) deliver(rn *machine.Node, c *stats.Counters, pkt *machine.Packet) {
	c.RelDelivered++
	r.l.handleWire(rn, pkt)
}

// sendAck transmits a category-5 acknowledgment for (src link, seq) back to
// the sender. Acks are generated and consumed by the message controllers —
// they occupy wire bandwidth but no processor time — and ride the faulty
// interconnect unprotected: a lost ack is repaired by the data
// retransmission it fails to cancel, a duplicated ack is idempotent.
func (r *reliable) sendAck(rn *machine.Node, src int, seq uint64, at sim.Time) {
	r.l.rt.NodeRT(rn.ID).C.AcksSent++
	if np := r.l.prof(rn.ID); np != nil {
		np.Packet(profile.Ack, ackBytes, at)
	}
	p := r.ackPacket(rn, src, ackBytes)
	p.Seq = seq
	rn.ControllerSend(at, p)
}

// ackPacket carves a standalone ack to dst from the node's control slab:
// acks are consumed at the sender's controller and never recycled.
func (r *reliable) ackPacket(rn *machine.Node, dst, size int) *machine.Packet {
	p := rn.AcquireCtrlPacket()
	p.Dst = int32(dst)
	p.Size = int32(size)
	p.Category = CatAck
	p.Ctrl = true
	p.OnArrive = r.hAck
	return p
}

// ackArrived is the controller hook of every standalone ack: cumulative
// when it carries an ack header, otherwise the per-copy ack of p.Seq.
func (r *reliable) ackArrived(sn *machine.Node, p *machine.Packet) {
	if p.HasAck {
		r.ackCumReceived(sn, int(p.Src), p.AckCum, p.AckSel)
		return
	}
	r.ackReceived(sn, int(p.Src), p.Seq)
}

// noteArrival records the controller-level arrival of seq on the src link
// and schedules a cumulative acknowledgment instead of acking the copy
// immediately. Runs in the data packet's controller hook.
func (r *reliable) noteArrival(rn *machine.Node, src int, seq uint64) {
	lk := r.link(rn.ID, src)
	switch {
	case seq == lk.cum:
		lk.cum++
		ab := lk.above
		for len(ab) > 0 && ab[0] == lk.cum {
			ab = ab[1:]
			lk.cum++
		}
		lk.above = ab
	case seq > lk.cum:
		if i, ok := slices.BinarySearch(lk.above, seq); !ok {
			lk.above = slices.Insert(lk.above, i, seq)
		}
		// seq < cum: a duplicate copy; the pending cumulative ack covers it.
	}
	a := &r.nodes[rn.ID]
	if lk.owed == 0 {
		a.owedTo = append(a.owedTo, src)
		lk.owedSince = rn.EventNow()
	}
	lk.owed++
	if !a.ackTimer.Pending() {
		if a.ackFire == nil {
			a.ackFire = func() { r.flushAcks(rn) }
		}
		r.l.m.Eng.StartTimer(rn.Lane(), rn.Lane(), &a.ackTimer, r.ackDelay, a.ackFire)
	}
}

// flushAcks emits the owed acknowledgments of every inbound link whose
// delay has elapsed. It fires on the delayed-ack timer; links already
// covered by a piggybacked ack since the timer was armed are skipped, and
// links whose first owed arrival is more recent than the ack delay keep
// waiting (the timer re-arms for the earliest of them), preserving each
// link's full coalescing and piggybacking window.
func (r *reliable) flushAcks(rn *machine.Node) {
	now := rn.EventNow()
	if rn.Down(now) {
		// Dead controllers acknowledge nothing; the crash discarded the owed
		// arrivals along with the rest of the node, and the restore resets
		// this ledger from the restored cursors.
		return
	}
	a := &r.nodes[rn.ID]
	kept := a.owedTo[:0]
	var nextDue sim.Time = -1
	for _, src := range a.owedTo {
		lk := a.links[src]
		if lk.owed == 0 {
			continue
		}
		due := lk.owedSince + r.ackDelay
		if due <= now {
			r.emit(rn, src, lk, now)
			continue
		}
		kept = append(kept, src)
		if nextDue < 0 || due < nextDue {
			nextDue = due
		}
	}
	a.owedTo = kept
	if nextDue >= 0 {
		r.l.m.Eng.StartTimer(rn.Lane(), rn.Lane(), &a.ackTimer, nextDue-now, a.ackFire)
	}
}

// selAcks copies up to maxSelAcks out-of-order seqs for an ack header, or
// returns nil when there are none — almost always.
func selAcks(above []uint64) *[]uint64 {
	if len(above) == 0 {
		return nil
	}
	sel := slices.Clone(above[:min(len(above), maxSelAcks)])
	return &sel
}

// selBytes is the wire size of a selective-ack list.
func selBytes(sel *[]uint64) int {
	if sel == nil {
		return 0
	}
	return 8 * len(*sel)
}

// emit sends one cumulative acknowledgment packet for the src link,
// replacing owed-1 individual ack packets. Like per-copy acks it is
// controller traffic: wire bandwidth, no processor time.
func (r *reliable) emit(rn *machine.Node, src int, lk *relLink, at sim.Time) {
	rcv := rn.ID
	sel := selAcks(lk.above)
	owed := lk.owed
	lk.owed = 0
	c := &r.l.rt.NodeRT(rcv).C
	c.AcksSent++
	size := ackBytes + selBytes(sel)
	if np := r.l.prof(rcv); np != nil {
		np.Packet(profile.Ack, size, at)
	}
	if owed > 1 {
		c.AcksCoalesced += uint64(owed - 1)
		if r.l.opt.Trace != nil {
			r.l.tracef(at, rcv, trace.EvAckCoalesce,
				"cum ack %d to n%d covers %d arrivals", lk.cum, src, owed)
		}
	}
	p := r.ackPacket(rn, src, size)
	p.HasAck = true
	p.AckCum = lk.cum
	p.AckSel = sel
	rn.ControllerSend(at, p)
}

// piggyback attaches the acknowledgments this node owes the packet's
// destination to an outbound carrier departing at the given instant — a
// lone data packet or a batch container — replacing the owed standalone
// ack packets entirely. It returns the extra wire bytes the ack adds.
func (r *reliable) piggyback(mn *machine.Node, p *machine.Packet, at sim.Time) int {
	if r.ackDelay == 0 {
		return 0
	}
	dst := int(p.Dst)
	a := &r.nodes[mn.ID]
	if a.links == nil || a.links[dst] == nil {
		return 0
	}
	lk := a.links[dst]
	owed := lk.owed
	if owed == 0 || at > lk.owedSince+r.ackDelay {
		// Nothing owed, or the carrier departs later than the standalone
		// delayed ack would: stealing the owed acks here would stretch the
		// ack latency past the bound the retransmission timeout budgets.
		return 0
	}
	lk.owed = 0
	p.HasAck = true
	p.AckCum = lk.cum
	p.AckSel = selAcks(lk.above)
	extra := 8 + selBytes(p.AckSel)
	c := &r.l.rt.NodeRT(mn.ID).C
	c.AcksCoalesced += uint64(owed)
	if np := r.l.prof(mn.ID); np != nil {
		np.PacketBytes(profile.Ack, extra)
	}
	if r.l.opt.Trace != nil {
		carrier := "packet"
		if p.Category == CatBatch {
			carrier = "batch"
		}
		r.l.tracef(mn.EventNow(), mn.ID, trace.EvAckCoalesce,
			"piggyback ack %d on %s to n%d covers %d arrivals", p.AckCum, carrier, dst, owed)
	}
	return extra
}

// ackCumReceived completes every pending message a cumulative ack covers:
// all seqs below cum on the (sender -> rcv) link, in seq order, plus the
// selectively listed out-of-order arrivals.
func (r *reliable) ackCumReceived(sn *machine.Node, rcv int, cum uint64, sel *[]uint64) {
	lk := r.link(sn.ID, rcv)
	for q := &lk.inflight; q.n > 0 && q.lo < cum; {
		r.complete(sn, rcv, lk, q.buf[q.lo&uint64(len(q.buf)-1)])
	}
	if sel != nil {
		for _, seq := range *sel {
			r.ackReceived(sn, rcv, seq)
		}
	}
}

// ackReceived runs at the sender's message controller: it marks (dst, seq)
// delivered and cancels the retransmission timer. Duplicate and stale acks
// are idempotent.
func (r *reliable) ackReceived(sn *machine.Node, dst int, seq uint64) {
	lk := r.link(sn.ID, dst)
	if m := lk.inflight.get(seq); m != nil && !m.acked {
		r.complete(sn, dst, lk, m)
	}
}

// complete retires an acknowledged in-flight message.
func (r *reliable) complete(sn *machine.Node, dst int, lk *relLink, m *relMsg) {
	m.acked = true
	m.timer.Stop()
	seq := m.seq
	r.finish(sn.ID, lk, m)
	if r.l.opt.Trace != nil {
		r.l.tracef(sn.EventNow(), sn.ID, trace.EvAck, "acked seq %d by n%d", seq, dst)
	}
}

// Unacked reports the number of in-flight (sent but unacknowledged)
// messages across all nodes — zero at quiescence unless messages were
// abandoned.
func (r *reliable) Unacked() int {
	total := 0
	for i := range r.nodes {
		for _, lk := range r.nodes[i].links {
			if lk != nil {
				total += lk.inflight.n
			}
		}
	}
	return total
}

// String describes the protocol configuration.
func (r *reliable) String() string {
	s := fmt.Sprintf("reliable{rto=%v maxBackoff=%v maxAttempts=%d", r.rto, r.maxBackoff, r.maxAttempts)
	if r.ackDelay > 0 {
		s += fmt.Sprintf(" ackDelay=%v", r.ackDelay)
	}
	return s + "}"
}
