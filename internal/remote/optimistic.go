package remote

import (
	"maps"
	"slices"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Optimistic-execution support: the inter-node layer's half of a lane's
// rollback snapshot, plus the pooling gates speculation requires.
//
// Record recycling (wireMsg payloads, wireBatch containers, relMsg
// retransmission records) is disabled in optimistic mode for the same reason
// checkpoint retention disables wire pooling: a rollback replays delivery
// events whose payload records must still hold their original content, and a
// speculative release would rewrite them. With pooling off, every record is
// immutable from fill to collection.
//
// The snapshot itself is lane-owned by construction: the reliable layer's
// nodes[n] (every link record of node n), the batcher's links[n] row, the
// retention links[n] row and nodeState[n] are only touched from node n's
// lane (acks arrive back on the sender's lane, data on the receiver's) — so
// each node's capture runs race-free on its own worker. Embedded sim.Timer
// values (retransmission, batch flush, delayed ack) are restored by the
// engine's own timer snapshot; the value copies taken here restore the
// surrounding record fields and coincide with the engine's values, both
// being taken at the same capture instant.

// EnableOptimistic switches the layer into optimistic-execution mode.
// Call before Run, after Attach and after the reliable protocol (if any)
// is configured.
func (l *Layer) EnableOptimistic() {
	l.optim = true
	if l.rel != nil {
		for i := range l.rel.nodes {
			l.rel.nodes[i].noPool = true
		}
	}
}

// Optimistic reports whether the layer is in optimistic-execution mode.
func (l *Layer) Optimistic() bool { return l.optim }

// stockSnap is the captured state of one live chunk-stock entry; the entry
// pointer is kept because wire records reference entries by identity.
type stockSnap struct {
	e      *stockEntry
	seeded bool
	chunks []*core.Object
}

// savedRel pairs an in-flight retransmission record with its captured value.
type savedRel struct {
	m *relMsg
	v relMsg
}

// savedLink pairs a link record with its captured value. The in-flight
// ring, reorder buffer and selective-ack list are copies: the live record
// mutates them in place.
type savedLink struct {
	lk *relLink
	v  relLink
}

// lbSnap is the captured state of one open link batch (lb nil: the link had
// no batch object at capture time).
type lbSnap struct {
	lb         *linkBatch
	pkts       []*machine.Packet
	bytes      int
	firstClock sim.Time
	maxClock   sim.Time
}

// NodeSnap is the layer-level rollback snapshot of one node.
type NodeSnap struct {
	rr, rrNext int
	rng        uint64
	loads      []int32
	loadAt     []sim.Time
	sent       [3]uint64
	stock      []stockSnap
	locCache   map[core.Address]core.Address
	advert     map[advertKey]core.Address

	// Reliable protocol: every link record in peer order, the values of
	// the in-flight records, and the delayed-ack schedule.
	links       []savedLink
	pendingVals []savedRel
	ackOwedTo   []int

	bat []lbSnap // per destination; nil slice when batching is off
	ret []int    // retention record counts per destination; nil without ckpt
}

// OptCaptureNode snapshots node's layer state for a speculative window.
// Runs on the worker goroutine that owns the node's lane.
func (l *Layer) OptCaptureNode(node int) *NodeSnap {
	ns := l.nodes[node]
	s := &NodeSnap{
		rr:     ns.rr,
		rrNext: ns.rrNext,
		rng:    ns.rng,
		loads:  append([]int32(nil), ns.loads...),
		loadAt: append([]sim.Time(nil), ns.loadAt...),
		sent:   ns.sent,
	}
	for _, e := range ns.stock {
		s.stock = append(s.stock, stockSnap{e: e, seeded: e.seeded,
			chunks: append([]*core.Object(nil), e.chunks...)})
	}
	if ns.locCache != nil {
		s.locCache = make(map[core.Address]core.Address, len(ns.locCache))
		for k, v := range ns.locCache {
			s.locCache[k] = v
		}
	}
	if ns.advert != nil {
		s.advert = make(map[advertKey]core.Address, len(ns.advert))
		for k, v := range ns.advert {
			s.advert[k] = v
		}
	}
	if r := l.rel; r != nil {
		rs := &r.nodes[node]
		for _, lk := range rs.links {
			if lk == nil {
				continue
			}
			v := *lk
			v.inflight.buf = slices.Clone(lk.inflight.buf)
			v.held = maps.Clone(lk.held)
			v.above = slices.Clone(lk.above)
			s.links = append(s.links, savedLink{lk: lk, v: v})
			for _, m := range lk.inflight.buf {
				if m != nil {
					s.pendingVals = append(s.pendingVals, savedRel{m: m, v: *m})
				}
			}
		}
		s.ackOwedTo = slices.Clone(rs.owedTo)
	}
	if b := l.bat; b != nil {
		s.bat = make([]lbSnap, len(b.links))
		if row := b.links[node]; row != nil {
			for dst, lb := range row {
				if lb == nil {
					continue
				}
				s.bat[dst] = lbSnap{lb: lb,
					pkts:       append([]*machine.Packet(nil), lb.pkts...),
					bytes:      lb.bytes,
					firstClock: lb.firstClock,
					maxClock:   lb.maxClock}
			}
		}
	}
	if l.ck != nil {
		row := l.ck.links[node]
		s.ret = make([]int, len(row))
		for dst := range row {
			s.ret[dst] = len(row[dst].recs)
		}
	}
	return s
}

// OptRestoreNode rolls node's layer state back to its snapshot. Runs
// single-threaded at the window barrier. Snapshots are single-use: restored
// maps and slices are handed back to the live state by reference.
func (l *Layer) OptRestoreNode(node int, s *NodeSnap) {
	ns := l.nodes[node]
	ns.rr = s.rr
	ns.rrNext = s.rrNext
	ns.rng = s.rng
	copy(ns.loads, s.loads)
	copy(ns.loadAt, s.loadAt)
	ns.sent = s.sent
	known := make(map[*stockEntry]bool, len(s.stock))
	for _, es := range s.stock {
		known[es.e] = true
		es.e.seeded = es.seeded
		es.e.chunks = append(es.e.chunks[:0:0], es.chunks...)
	}
	// Entries materialized after the capture revert to empty; an empty
	// non-seeded entry behaves exactly like an absent key.
	for _, e := range ns.stock {
		if !known[e] {
			e.seeded = false
			e.chunks = nil
		}
	}
	ns.locCache = s.locCache
	ns.advert = s.advert
	if r := l.rel; r != nil {
		// Records allocated after the capture revert to zero, which reads
		// exactly like an absent record.
		rs := &r.nodes[node]
		saved := s.links
		for _, lk := range rs.links {
			if lk == nil {
				continue
			}
			if len(saved) > 0 && saved[0].lk == lk {
				*lk = saved[0].v
				saved = saved[1:]
			} else {
				*lk = relLink{}
			}
		}
		for _, sv := range s.pendingVals {
			*sv.m = sv.v
		}
		rs.owedTo = append(rs.owedTo[:0:0], s.ackOwedTo...)
	}
	if b := l.bat; b != nil {
		if row := b.links[node]; row != nil {
			for dst, lb := range row {
				if lb == nil {
					continue
				}
				if sv := &s.bat[dst]; sv.lb != nil {
					lb.pkts = append(lb.pkts[:0:0], sv.pkts...)
					lb.bytes = sv.bytes
					lb.firstClock = sv.firstClock
					lb.maxClock = sv.maxClock
				} else {
					// Opened speculatively: back to idle (its flush timer was
					// revoked with the lane's birth log).
					lb.reset()
				}
			}
		}
	}
	if l.ck != nil {
		row := l.ck.links[node]
		for dst := range row {
			recs := row[dst].recs
			for i := s.ret[dst]; i < len(recs); i++ {
				recs[i] = ckptRec{}
			}
			row[dst].recs = recs[:s.ret[dst]]
		}
	}
}
