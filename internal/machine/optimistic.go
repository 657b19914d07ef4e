package machine

import "repro/internal/sim"

// Optimistic-execution support. Under the Time Warp runner (see
// internal/sim/optimistic.go) a node's lane may execute speculatively past
// the conservative horizon and be rolled back; the machine contributes two
// things: a packet mode without recycling, and a per-node state snapshot.
//
// Pooling must be off because a rollback re-runs delivery events whose
// *Packet arguments live in the restored lane heap: had a speculative
// handler recycled such a packet, the retried delivery would read a zeroed
// (or reused) struct. With pooling disabled every packet is immutable from
// launch to its final poll, so replaying a delivery is safe.

// SetOptimistic switches the machine into optimistic-execution mode:
// AcquirePacket stops drawing from the per-node free lists and every packet
// is carved fresh from the node's slab and garbage-collected rather than
// recycled. Call before Run.
func (m *Machine) SetOptimistic() { m.opt = true }

// Optimistic reports whether the machine is in optimistic-execution mode.
func (m *Machine) Optimistic() bool { return m.opt }

// NodeSnap is the machine-level rollback snapshot of one node. The FIFO
// clamp is captured column-wise: element (dst, src) of the clamp matrix is
// read and written only by the sending lane src, so node src's snapshot owns
// its outgoing column across all destinations.
type NodeSnap struct {
	clock         sim.Time
	busy          sim.Time
	downUntil     sim.Time
	resumePending bool
	inResume      bool
	rx            []*Packet
	arrivalCol    []sim.Time // nodes[d].lastArrival[id] for every d
	ctrlCol       []sim.Time // nodes[d].lastCtrl[id] for every d

	instrCount     uint64
	packetsSent    uint64
	packetsRecvd   uint64
	bytesSent      uint64
	msgsSent       uint64
	packetsDropped uint64
	packetsDuped   uint64
	crashDrops     uint64
	eraDrops       uint64
}

// OptCapture snapshots the node's machine-level state for a speculative
// window. Called from the worker goroutine that owns the node's lane.
func (n *Node) OptCapture() *NodeSnap {
	s := &NodeSnap{
		clock:         n.Clock,
		busy:          n.Busy,
		downUntil:     n.downUntil,
		resumePending: n.resumePending,
		inResume:      n.inResume,

		instrCount:     n.InstrCount,
		packetsSent:    n.PacketsSent,
		packetsRecvd:   n.PacketsRecvd,
		bytesSent:      n.BytesSent,
		msgsSent:       n.MsgsSent,
		packetsDropped: n.PacketsDropped,
		packetsDuped:   n.PacketsDuped,
		crashDrops:     n.CrashDrops,
		eraDrops:       n.EraDrops,
	}
	if len(n.rx) > 0 {
		s.rx = append([]*Packet(nil), n.rx...)
	}
	s.arrivalCol = make([]sim.Time, len(n.m.nodes))
	s.ctrlCol = make([]sim.Time, len(n.m.nodes))
	for d, dn := range n.m.nodes {
		s.arrivalCol[d] = dn.lastArrival[n.ID]
		s.ctrlCol[d] = dn.lastCtrl[n.ID]
	}
	return s
}

// OptRestore rolls the node's machine-level state back to its snapshot.
// Runs single-threaded at the window barrier.
func (n *Node) OptRestore(s *NodeSnap) {
	n.Clock = s.clock
	n.Busy = s.busy
	n.downUntil = s.downUntil
	n.resumePending = s.resumePending
	n.inResume = s.inResume

	n.InstrCount = s.instrCount
	n.PacketsSent = s.packetsSent
	n.PacketsRecvd = s.packetsRecvd
	n.BytesSent = s.bytesSent
	n.MsgsSent = s.msgsSent
	n.PacketsDropped = s.packetsDropped
	n.PacketsDuped = s.packetsDuped
	n.CrashDrops = s.crashDrops
	n.EraDrops = s.eraDrops

	n.rx = append(n.rx[:0], s.rx...)
	for d, dn := range n.m.nodes {
		dn.lastArrival[n.ID] = s.arrivalCol[d]
		dn.lastCtrl[n.ID] = s.ctrlCol[d]
	}
}

// OptimisticRun drives the simulation to quiescence like Run, executing
// node lanes concurrently under the engine's window driver: lookahead-width
// windows when cfg's speculation ceiling is the lookahead, otherwise Time
// Warp windows that speculate past it and roll back on stragglers. Results
// are identical to Run. The caller provides everything in cfg except
// Lookahead, which the machine owns.
func (m *Machine) OptimisticRun(workers int, cfg sim.OptimisticConfig) error {
	cfg.Lookahead = m.Lookahead()
	_, err := m.Eng.RunOptimistic(workers, cfg)
	st := m.Eng.OptimisticStats()
	m.optStats.Windows += st.Windows
	m.optStats.Speculative += st.Speculative
	m.optStats.Rollbacks += st.Rollbacks
	m.optStats.SerialSteps += st.SerialSteps
	return err
}

// OptStats reports the accumulated window-driver statistics across every
// OptimisticRun drive of this machine. All values are deterministic.
func (m *Machine) OptStats() sim.OptStats { return m.optStats }
