// Package checkpoint is the consistent-snapshot and crash-recovery subsystem
// of the simulated multicomputer. It periodically captures a coordinated
// global checkpoint — a Chandy–Lamport-style consistent cut over the
// machine's FIFO links — and, when a node crash fault fires, rolls the whole
// machine back to the last complete checkpoint round and resumes execution
// from it.
//
// # Snapshot rounds
//
// Node 0 coordinates. On each interval tick it captures its own state and
// sends a marker on every outgoing channel; every other node captures its
// state on the first marker of the round it sees, then propagates markers on
// all of its own outgoing channels and acknowledges to the coordinator. The
// round is complete when the coordinator holds all n-1 acknowledgments.
// Markers ride the reliable layer's per-link sequence space (remote.SendCkpt),
// so a channel's post-snapshot traffic can never overtake its marker — the
// FIFO property the consistency of the cut rests on.
//
// A node's snapshot has three parts, each charged against the simulated
// stable store (machine.Cost.CkptInstr):
//
//   - language state: every hosted object with its state box, buffered
//     message queue, saved contexts and scheduling-queue position
//     (core.CaptureNode, through the Snapshotter codec registry);
//   - inter-node state: sequence cursors, chunk stocks, placement state,
//     location cache (remote.CaptureRel);
//   - channel state, held implicitly: the reliable layer retains every
//     transmitted record until a completed round's receive cursors cover it.
//
// # Crash recovery
//
// A crash (fault.NodeCrash) kills its node mid-run: receive buffers, object
// state and protocol windows are volatile and lost. At restart the subsystem
// performs a global rollback: every node — not just the crashed one — is
// restored to the last complete round, the machine era is bumped so all
// in-flight packets of the rolled-back timeline are revoked, and the
// retained in-flight records of the cut are re-pended and retransmitted.
// Restoring all nodes (rather than replaying the lost node against live
// peers) is what makes recovery exact: the restored cut is a state the
// fault-free machine could have been in, and execution from it is just a
// fresh deterministic run.
package checkpoint

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/remote"
	"repro/internal/sim"
	"repro/internal/trace"
)

// markerBytes is the wire payload of a snapshot marker beyond the packet
// header: the round number.
const markerBytes = 8

// Snapshot is one complete coordinated checkpoint: a consistent global state
// the machine can restart from.
type Snapshot struct {
	Round int
	At    sim.Time
	core  []*core.NodeImage
	rel   []*remote.RelImage
}

// SizeBytes reports the total modelled stable-store footprint of the round.
func (s *Snapshot) SizeBytes() int {
	total := 0
	for i := range s.core {
		total += s.core[i].SizeBytes() + s.rel[i].SizeBytes()
	}
	return total
}

// Manager drives the snapshot protocol and executes crash/restart events.
// All methods run on the simulation goroutine. Under a parallel executor the
// window driver fences the marker rounds and the host lane, so every method
// still runs between windows or while the driver steps serially (a restore
// touches every lane at once).
type Manager struct {
	rt       *core.Runtime
	l        *remote.Layer
	m        *machine.Machine
	interval sim.Time
	tr       trace.Sink
	prof     *profile.Profiler

	reg *Registry

	n       int
	round   int       // last round started
	cur     *Snapshot // in-progress round; nil when idle
	snapped []bool    // per node: captured in the current round
	acks    int       // coordinator: snapshot-acks received for the round
	stable  *Snapshot // last complete round — the restore target

	// nextTickAt is the virtual time of the next armed coordinator tick
	// (zero when the tick chain has ended). The optimistic executor fences
	// its speculative windows on it so no window spans the start of a round.
	nextTickAt sim.Time
}

// New builds a manager over an attached runtime/layer pair. interval is the
// coordinator's tick period; zero means no periodic rounds — only the
// baseline round-0 checkpoint captured at Start (enough for crash plans that
// tolerate restarting from the beginning). reg may be nil (plain-copy codec
// for every class).
func New(rt *core.Runtime, l *remote.Layer, interval sim.Time, reg *Registry) *Manager {
	if reg == nil {
		reg = NewRegistry()
	}
	g := &Manager{
		rt:       rt,
		l:        l,
		m:        rt.M,
		interval: interval,
		reg:      reg,
		n:        rt.Nodes(),
	}
	g.snapped = make([]bool, g.n)
	return g
}

// SetTrace attaches an event sink for checkpoint events.
func (g *Manager) SetTrace(tr trace.Sink) { g.tr = tr }

// SetProfiler attaches the cost-attribution profiler; snapshot and restore
// charges then land on the ckpt path with their stable-store bytes.
func (g *Manager) SetProfiler(p *profile.Profiler) { g.prof = p }

// Registry returns the manager's codec registry.
func (g *Manager) Registry() *Registry { return g.reg }

// Stable returns the last complete checkpoint (the current restore target).
func (g *Manager) Stable() *Snapshot { return g.stable }

// Rounds returns the number of completed snapshot rounds, including the
// baseline round 0.
func (g *Manager) Rounds() int {
	if g.stable == nil {
		return 0
	}
	return g.stable.Round + 1
}

// Start captures the baseline round-0 checkpoint, schedules the periodic
// rounds, and installs the crash/restart events of the plan. Must run after
// the application's setup (classes defined, bootstrap objects created,
// initial messages injected) and before the machine runs: the baseline
// checkpoint is trivially consistent because no event has fired yet, which
// also covers crashes that strike before the first periodic round completes.
func (g *Manager) Start(crashes []fault.NodeCrash) {
	g.rt.Freeze()
	if !g.rt.SnapshotsEnabled() {
		panic("checkpoint: runtime was built without EnableSnapshots")
	}
	g.l.EnableCheckpoint()
	g.stable = g.capture(0, 0)
	if g.interval > 0 {
		g.scheduleTick(g.interval)
	}
	for _, c := range crashes {
		c := c
		mn := g.m.Node(c.Node)
		restart := c.At + c.RestartAfter
		g.m.Eng.ScheduleFuncOn(0, mn.Lane(), c.At, func() {
			mn.BeginOutage(restart)
			g.rt.NodeRT(c.Node).C.NodeCrashes++
			g.tracef(c.At, c.Node, trace.EvCrash, "crash, restart at %v", restart)
		})
		g.m.Eng.ScheduleFuncOn(0, 0, restart, func() {
			g.restore(restart, c.Node)
		})
	}
}

// Snapshot captures a direct (marker-free) global checkpoint and promotes it
// to the stable restore target. Valid only when the machine is quiescent —
// between Run calls no event is in flight, so every direct cut is consistent.
func (g *Manager) Snapshot() *Snapshot {
	g.round++
	g.stable = g.capture(g.round, g.m.MaxClock())
	return g.stable
}

// Restore rolls the whole machine back to the last stable checkpoint. Valid
// only when the machine is quiescent; the per-node completion (stable-store
// read charge, in-flight replay, wake) runs as lane events at the start of
// the next Run, which resumes execution from the restored state.
func (g *Manager) Restore() {
	g.restore(g.m.MaxClock(), -1)
}

// capture snapshots every node directly, without markers — valid only when
// no event is in flight (round 0, or a quiescent machine).
func (g *Manager) capture(round int, at sim.Time) *Snapshot {
	snap := &Snapshot{Round: round, At: at,
		core: make([]*core.NodeImage, g.n), rel: make([]*remote.RelImage, g.n)}
	g.cur = snap
	for i := 0; i < g.n; i++ {
		g.snapNode(i)
	}
	g.cur = nil
	g.l.CkptStableTrim(snap.rel)
	return snap
}

// scheduleTick arms the coordinator's next interval tick.
func (g *Manager) scheduleTick(at sim.Time) {
	g.nextTickAt = at
	ln := g.m.Node(0).Lane()
	g.m.Eng.ScheduleFuncOn(ln, ln, at, func() { g.tick(at) })
}

// NextTick returns the virtual time of the next armed coordinator tick, or
// zero when no tick is pending. The optimistic executor uses it as a window
// fence: a speculative window never extends past the start of a round, so
// the marker protocol always begins from committed state.
func (g *Manager) NextTick() sim.Time { return g.nextTickAt }

// RoundInFlight reports whether a snapshot round is currently collecting.
// The optimistic executor steps serially while true: a round's captures and
// marker traffic span many lanes and must observe a committed global state.
func (g *Manager) RoundInFlight() bool { return g.cur != nil }

// tick begins a snapshot round on the coordinator, unless a node is dead
// (the round could never collect its ack, so it is skipped until every node
// is back up) or the previous round is still collecting.
func (g *Manager) tick(now sim.Time) {
	// The tick chain must not keep a finished machine alive: the engine runs
	// until its queue drains, so when this tick was the last live event the
	// application has quiesced and the periodic rounds end with it. Dead
	// (stopped) timer slots don't count — each round's own marker traffic
	// leaves retry-timer slots behind that would otherwise read as pending
	// work and sustain the rounds forever.
	if g.m.Eng.LivePending() == 0 {
		g.nextTickAt = 0
		return
	}
	g.scheduleTick(now + g.interval)
	if g.cur != nil {
		return
	}
	for i := 0; i < g.n; i++ {
		if g.m.Node(i).Down(now) {
			return
		}
	}
	g.round++
	g.cur = &Snapshot{Round: g.round, At: now,
		core: make([]*core.NodeImage, g.n), rel: make([]*remote.RelImage, g.n)}
	for i := range g.snapped {
		g.snapped[i] = false
	}
	g.acks = 0
	g.m.Node(0).SyncClock(now)
	g.snapNode(0)
	r := g.round
	for d := 1; d < g.n; d++ {
		d := d
		g.l.SendCkpt(0, d, markerBytes, func() { g.onMarker(r, d) })
	}
	if g.n == 1 {
		g.completeRound()
	}
}

// onMarker runs at node d when a round-r marker is polled: first marker of
// the round captures the node and propagates markers; later markers of the
// same round (one arrives per inbound channel) are the cut's channel
// delimiters and need no action beyond their in-band position.
func (g *Manager) onMarker(r, d int) {
	if g.cur == nil || g.cur.Round != r || g.snapped[d] {
		return
	}
	g.snapNode(d)
	for p := 0; p < g.n; p++ {
		if p == d {
			continue
		}
		p := p
		g.l.SendCkpt(d, p, markerBytes, func() { g.onMarker(r, p) })
	}
	g.l.SendCkpt(d, 0, markerBytes, func() { g.onAck(r) })
}

// onAck runs at the coordinator when a snapshot acknowledgment arrives; the
// n-1th acknowledgment completes the round.
func (g *Manager) onAck(r int) {
	if g.cur == nil || g.cur.Round != r {
		return
	}
	g.acks++
	if g.acks == g.n-1 {
		g.completeRound()
	}
}

// completeRound promotes the collected round to the stable restore target,
// lets the reliable layer free retained records the round's receive cursors
// cover, and drops the previous stable round.
func (g *Manager) completeRound() {
	snap := g.cur
	g.cur = nil
	g.stable = snap
	g.l.CkptStableTrim(snap.rel)
	g.rt.NodeRT(0).C.CkptRounds++
	g.tracef(snap.At, 0, trace.EvCkptRound,
		"round %d complete (%d bytes)", snap.Round, snap.SizeBytes())
}

// snapNode captures one node's language and inter-node state into the
// current round and charges the stable-store write.
func (g *Manager) snapNode(i int) {
	ci := g.rt.CaptureNode(i, g.reg.encode)
	ri := g.l.CaptureRel(i)
	g.cur.core[i] = ci
	g.cur.rel[i] = ri
	g.snapped[i] = true
	bytes := ci.SizeBytes() + ri.SizeBytes()
	mn := g.m.Node(i)
	mn.Charge(g.m.Cfg.Cost.CkptInstr(bytes))
	if g.prof != nil {
		np := g.prof.Node(i)
		np.ChargeInstr(profile.Ckpt, g.m.Cfg.Cost.CkptInstr(bytes), mn.Now())
		np.CountEvent(profile.Ckpt, mn.Now())
		np.StableWrite(bytes)
	}
	c := &g.rt.NodeRT(i).C
	c.CkptSaves++
	c.CkptBytes += uint64(bytes)
	g.tracef(mn.Now(), i, trace.EvCkptSave,
		"snapshot round %d: %d objects, %d bytes", g.cur.Round, ci.Objects(), bytes)
}

// restore executes a global rollback: the whole machine returns to the last
// complete checkpoint round and execution resumes from it. node is the
// crashed node whose restart triggered the rollback, or -1 for a manual
// Restore. Runs as a host-lane event, which the parallel executors fence
// serial.
func (g *Manager) restore(at sim.Time, node int) {
	snap := g.stable
	if snap == nil {
		panic("checkpoint: restore without a stable checkpoint")
	}
	// The in-progress round (if any) dies with the timeline that was
	// collecting it: its markers and acks are rolled back with everything
	// else.
	g.cur = nil
	g.acks = 0
	// Tear down the rolled-back timeline's protocol state, revoke its
	// in-flight packets, and clear the survivors' receive queues.
	g.l.CkptTeardown()
	g.m.BumpEra()
	for i := 0; i < g.n; i++ {
		g.m.Node(i).DropRx()
	}
	for i := 0; i < g.n; i++ {
		g.rt.RestoreNode(snap.core[i], g.reg.decode)
		g.l.CkptRestoreNode(snap.rel[i])
	}
	// Truncation must be synchronous with the cursor restore: any event of
	// the restored timeline (a periodic tick's marker, say) may transmit
	// under a restored sequence number before the per-node replay events run.
	g.l.CkptTruncate(snap.rel)
	if node >= 0 {
		g.m.Node(node).EndOutage(at)
		g.rt.NodeRT(node).C.NodeRestarts++
		g.tracef(at, node, trace.EvRestore,
			"restart: global rollback to round %d (captured at %v)", snap.Round, snap.At)
	} else {
		g.tracef(at, 0, trace.EvRestore,
			"manual rollback to round %d (captured at %v)", snap.Round, snap.At)
	}
	// Per-node completion runs as a lane event on each node: the stable-store
	// read is charged against a fresh clock, retained in-flight records of
	// the cut are re-pended and retransmitted (arming retry timers against
	// the node's own lane), and the node is woken to resume restored work. A
	// node still inside its own crash outage skips the charge and replay —
	// its restart will run this whole sequence again.
	for i := 0; i < g.n; i++ {
		i := i
		mn := g.m.Node(i)
		g.m.Eng.ScheduleFuncOn(0, mn.Lane(), at, func() {
			if mn.Down(at) {
				return
			}
			mn.SyncClock(at)
			bytes := snap.core[i].SizeBytes() + snap.rel[i].SizeBytes()
			mn.Charge(g.m.Cfg.Cost.RestoreInstr(bytes))
			if g.prof != nil {
				np := g.prof.Node(i)
				np.ChargeInstr(profile.Ckpt, g.m.Cfg.Cost.RestoreInstr(bytes), mn.Now())
				np.StableWrite(bytes)
			}
			if replayed := g.l.CkptReplayNode(i, snap.rel); replayed > 0 {
				g.rt.NodeRT(i).C.ReplayedMsgs += uint64(replayed)
			}
			mn.Wake()
		})
	}
}

// tracef records a checkpoint event when tracing is enabled.
func (g *Manager) tracef(at sim.Time, node int, kind trace.Kind, format string, args ...any) {
	if g.tr != nil {
		g.tr.Event(trace.Event{
			At:   at,
			Node: node,
			Kind: kind,
			What: fmt.Sprintf(format, args...),
		})
	}
}

// String describes the configuration for logs.
func (g *Manager) String() string {
	if g.interval <= 0 {
		return "checkpoint{round-0 only}"
	}
	return fmt.Sprintf("checkpoint{interval=%v}", g.interval)
}
