package machine

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/slab"
)

// NetConfig models hardware message latency. The total hardware latency of
// one packet is FixedNs + HopNs*hops + NsPerByte*max(0, size-BaseBytes).
// Defaults reproduce the paper's ~1.5µs per-direction hardware latency for
// the small (4-word) messages of Section 6.1 on adjacent nodes.
type NetConfig struct {
	FixedNs   sim.Time // fixed wire + launch latency per packet
	HopNs     sim.Time // additional latency per routing hop
	BaseBytes int      // bytes covered by the fixed latency
	NsPerByte sim.Time // transfer cost per byte beyond BaseBytes (25MB/s = 40ns/B)
}

// DefaultNet returns the AP1000-flavoured hardware latency model.
func DefaultNet() NetConfig {
	return NetConfig{FixedNs: 1490, HopNs: 10, BaseBytes: 16, NsPerByte: 40}
}

// Latency returns the hardware delivery latency for a packet of size bytes
// traversing hops network hops.
func (nc NetConfig) Latency(hops, size int) sim.Time {
	l := nc.FixedNs + nc.HopNs*sim.Time(hops)
	if size > nc.BaseBytes {
		l += nc.NsPerByte * sim.Time(size-nc.BaseBytes)
	}
	return l
}

// NotifyMode selects how message arrival is signalled to the software
// (Section 5: "Message arrival may be notified by polling as in CM-5 or
// AP1000, or by interrupt as in nCUBE/2 or iPSC/2").
type NotifyMode uint8

const (
	// NotifyPolling: the runtime polls for arrivals; every method epilogue
	// pays the PollRemote cost (the AP1000 configuration of the paper).
	NotifyPolling NotifyMode = iota
	// NotifyInterrupt: arrivals interrupt the processor; polling is free
	// but every received packet pays interrupt entry/exit.
	NotifyInterrupt
)

func (m NotifyMode) String() string {
	if m == NotifyInterrupt {
		return "interrupt"
	}
	return "polling"
}

// Config describes a simulated multicomputer.
type Config struct {
	Nodes    int      // number of processing nodes
	ClockMHz float64  // processor clock (AP1000: 25MHz SPARC)
	CPI      float64  // average cycles per instruction (calibrated 2.3)
	Topology Topology // routing distance model; nil = squarish torus
	Cost     Cost     // instruction-cost model
	Net      NetConfig
	Notify   NotifyMode // arrival notification: polling (default) or interrupt
}

// DefaultConfig returns an AP1000-like machine with n nodes.
func DefaultConfig(n int) Config {
	return Config{
		Nodes:    n,
		ClockMHz: 25,
		CPI:      2.3,
		Topology: SquarishTorus(n),
		Cost:     DefaultCost(),
		Net:      DefaultNet(),
	}
}

// NsPerInstr returns virtual nanoseconds consumed per instruction.
func (c Config) NsPerInstr() float64 {
	return c.CPI * 1000 / c.ClockMHz
}

// InstrTime converts an instruction count to virtual time.
func (c Config) InstrTime(instr int) sim.Time {
	return sim.Time(float64(instr)*c.NsPerInstr() + 0.5)
}

// FaultModel injects interconnect and node faults into the machine. The
// model must be deterministic: two runs that present the same sequence of
// calls must return the same answers (package fault provides a seed-driven
// implementation). A nil model means a perfectly reliable machine.
type FaultModel interface {
	// Link is consulted once per packet transmission and returns the extra
	// latency of every physical copy to deliver. A one-element slice {0} is
	// normal delivery; an empty slice drops the packet; more than one
	// element duplicates it, each copy with its own extra latency.
	Link(src, dst int, at sim.Time, size int) []sim.Time
	// PausedUntil reports the virtual time until which node is paused at
	// time at. A result <= at means the node is running normally. Pauses
	// take effect at turn boundaries: a turn already under way completes.
	PausedUntil(node int, at sim.Time) sim.Time
}

// FaultSink observes injected faults, so the runtime above can account them
// in its counters and trace. All callbacks run on the simulation goroutine.
type FaultSink interface {
	PacketDropped(src, dst int, at sim.Time, category int)
	PacketDuplicated(src, dst int, at sim.Time, category int)
	NodePaused(node int, at, until sim.Time)
}

// SetFaults installs a fault model. Call before Run; a nil model restores
// perfect reliability.
func (m *Machine) SetFaults(f FaultModel) { m.faults = f }

// Faults returns the installed fault model (nil when the machine is
// perfectly reliable).
func (m *Machine) Faults() FaultModel { return m.faults }

// SetFaultSink installs a fault observer.
func (m *Machine) SetFaultSink(s FaultSink) { m.faultSink = s }

// FaultSink returns the installed fault observer, if any.
func (m *Machine) FaultSink() FaultSink { return m.faultSink }

// Packet is a self-dispatching message in the Active Message style: the
// sender attaches the handler that runs on the receiving node when the
// packet is polled. Payload is opaque to the machine layer.
type Packet struct {
	Src, Dst int
	Size     int // bytes, for bandwidth modelling
	Arrival  sim.Time
	Category int // handler category (for statistics only)
	Handler  func(n *Node, p *Packet)
	Payload  any

	// Msgs is the number of logical messages this physical packet carries.
	// Zero and one both mean an ordinary single-message packet; the wire-path
	// batching layer sets it to the count of coalesced records so the machine
	// can account logical traffic separately from packet launches.
	Msgs int

	// OnArrive, if set, runs in engine context the moment the packet
	// reaches the destination's message controller — before the software
	// handler is scheduled, and regardless of how backlogged or paused the
	// receiving processor is. It models hardware-level actions such as
	// transport acknowledgments. A packet with OnArrive set and a nil
	// Handler is consumed entirely at the controller and never enters the
	// receive queue.
	OnArrive func(n *Node, p *Packet)

	// Ctrl routes the packet over the link's control virtual channel:
	// transport acknowledgments and similar protocol traffic that must not
	// queue behind the data stream. Data sends record their arrival into the
	// per-link FIFO clamp at the *processor clock* of the send, which may lie
	// far ahead of engine time inside a long method body; a controller-
	// generated ack transmitted mid-body would otherwise be clamped behind
	// data that, in hardware terms, has not departed yet. The control channel
	// keeps its own FIFO clamp instead.
	Ctrl bool

	// pooled marks packets obtained from AcquirePacket; the machine
	// recycles them into the receiving node's free list once consumed.
	// Packets built as plain literals are never recycled.
	pooled bool

	// era stamps the machine era the packet was launched in. A global
	// checkpoint restore bumps the machine's era, revoking every packet
	// still in flight from the rolled-back timeline: a stale-era packet is
	// discarded at the destination controller instead of delivered.
	era uint32

	// next links a recycled packet into its node's free list.
	next *Packet
}

// Retain removes p from pool management: the machine will not recycle or
// clear it after its handler runs. Handlers that store a packet beyond the
// handler call (e.g. a reorder buffer) must call Retain first.
func (p *Packet) Retain() { p.pooled = false }

// AcquirePacket returns a zeroed packet from the node's free list, or else
// carved from the node's slab, marked for recycling at the receiver once its
// handler has run.
func (n *Node) AcquirePacket() *Packet {
	if n.m.opt {
		// Optimistic mode: a rollback may replay this packet's delivery, so
		// it must never be recycled out from under the restored event. The
		// slab never hands a record out twice, so it is still safe here.
		return n.pktSlab.New()
	}
	p := n.pktFree
	if p != nil {
		n.pktFree = p.next
		p.next = nil
	} else {
		p = n.pktSlab.New()
	}
	p.pooled = true
	return p
}

// ReleasePacket returns a pooled packet to this node's free list. Calling
// it on a non-pooled (or retained) packet is a no-op, so it is always safe
// after a handler has run.
func (n *Node) ReleasePacket(p *Packet) {
	if !p.pooled {
		return
	}
	*p = Packet{next: n.pktFree}
	n.pktFree = p
}

// Runner is the per-node scheduler installed by the language runtime.
// Step runs one scheduling quantum (typically: dispatch one buffered
// message) and reports whether more queued work remains.
type Runner interface {
	Step() bool
}

// Node is one processing element. All state is owned by the simulation
// goroutine; a Node is not safe for concurrent use.
type Node struct {
	ID    int
	Clock sim.Time // local virtual clock; may run ahead of engine time
	Busy  sim.Time // accumulated compute time, for utilization

	m             *Machine
	lane          int               // engine event lane (node ID + 1; lane 0 is the host)
	rx            []*Packet         // delivered packets awaiting poll, in arrival order
	pktFree       *Packet           // recycled packets available to AcquirePacket
	pktSlab       slab.Slab[Packet] // fresh packets once pktFree is empty
	lastArrival   []sim.Time
	lastCtrl      []sim.Time // FIFO clamp of the control virtual channel
	Runner        Runner
	resumePending bool
	inResume      bool
	downUntil     sim.Time // crash outage: node is dead until this time (0 = up)

	// Counters.
	InstrCount     uint64
	PacketsSent    uint64
	PacketsRecvd   uint64
	BytesSent      uint64
	MsgsSent       uint64 // logical messages launched (>= PacketsSent with batching)
	PacketsDropped uint64 // transmissions lost to injected link faults
	PacketsDuped   uint64 // extra copies injected by link faults
	CrashDrops     uint64 // packets lost at the controller while the node was down
	EraDrops       uint64 // in-flight packets revoked by a checkpoint restore
}

// Machine is the full multicomputer: an event engine plus nodes and the
// interconnect model.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	nodes []*Node

	nsPerInstr float64

	faults    FaultModel
	faultSink FaultSink

	// era is the current machine timeline. A global checkpoint restore
	// bumps it, invalidating every packet launched before the restore (see
	// Packet.era); zero-cost on the default path.
	era uint32

	// opt marks optimistic-execution mode: packet pooling is disabled so a
	// rolled-back delivery can be replayed against an intact packet (see
	// optimistic.go). optStats accumulates the window driver's run statistics.
	opt      bool
	optStats sim.OptStats

	// Typed event kinds registered with the engine, so the hot delivery
	// and scheduling paths dispatch through a switch instead of allocating
	// a captured closure per event.
	deliverKind sim.Kind // arg: *Packet, fires on the destination's lane
	resumeKind  sim.Kind // arg: *Node, fires on the node's own lane
}

// TotalPackets returns the machine-wide count of transmitted packets.
func (m *Machine) TotalPackets() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.PacketsSent
	}
	return t
}

// TotalMsgs returns the machine-wide count of logical messages launched.
// Without batching it equals TotalPackets; with batching it exceeds it, and
// the ratio is the mean aggregation factor.
func (m *Machine) TotalMsgs() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.MsgsSent
	}
	return t
}

// TotalBytes returns the machine-wide count of transmitted bytes.
func (m *Machine) TotalBytes() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.BytesSent
	}
	return t
}

// TotalDropped returns the machine-wide count of packets lost to injected
// link faults.
func (m *Machine) TotalDropped() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.PacketsDropped
	}
	return t
}

// TotalCrashDrops returns the machine-wide count of packets lost at dead
// message controllers during crash outages.
func (m *Machine) TotalCrashDrops() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.CrashDrops
	}
	return t
}

// TotalDuped returns the machine-wide count of extra packet copies injected
// by link faults.
func (m *Machine) TotalDuped() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.PacketsDuped
	}
	return t
}

// New builds a machine from cfg. It validates the topology against the node
// count.
func New(cfg Config) (*Machine, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("machine: node count %d invalid", cfg.Nodes)
	}
	if cfg.ClockMHz <= 0 || cfg.CPI <= 0 {
		return nil, fmt.Errorf("machine: clock %.1fMHz / CPI %.2f invalid", cfg.ClockMHz, cfg.CPI)
	}
	if cfg.Topology == nil {
		cfg.Topology = SquarishTorus(cfg.Nodes)
	}
	if err := cfg.Topology.Validate(cfg.Nodes); err != nil {
		return nil, err
	}
	if cfg.Notify == NotifyInterrupt {
		// Interrupt-driven reception: no polling on the fast path, but each
		// arriving packet pays interrupt entry/exit on top of extraction.
		cfg.Cost.RemoteRecvExtract += cfg.Cost.InterruptEntry
		cfg.Cost.PollRemote = 0
	}
	m := &Machine{
		Cfg:        cfg,
		Eng:        sim.NewEngine(),
		nsPerInstr: cfg.NsPerInstr(),
	}
	// One event lane per node plus lane 0 for the host; typed kinds keep
	// the per-packet and per-turn scheduling allocation-free.
	m.Eng.SetLanes(cfg.Nodes + 1)
	m.deliverKind = m.Eng.RegisterHandler(func(at sim.Time, arg any) {
		p := arg.(*Packet)
		m.nodes[p.Dst].deliver(p)
	})
	m.resumeKind = m.Eng.RegisterHandler(func(at sim.Time, arg any) {
		arg.(*Node).resumeAt(at)
	})
	m.nodes = make([]*Node, cfg.Nodes)
	for i := range m.nodes {
		m.nodes[i] = &Node{
			ID:          i,
			m:           m,
			lane:        i + 1,
			lastArrival: make([]sim.Time, cfg.Nodes),
			lastCtrl:    make([]sim.Time, cfg.Nodes),
		}
	}
	return m, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Node returns node id.
func (m *Machine) Node(id int) *Node { return m.nodes[id] }

// Nodes returns the node count.
func (m *Machine) Nodes() int { return len(m.nodes) }

// Run drives the simulation until quiescence (no pending events).
func (m *Machine) Run() error {
	_, err := m.Eng.Run()
	return err
}

// Lookahead returns the minimum latency of any cross-node packet: the
// fixed wire cost plus one routing hop. Every cross-node effect lands at
// least this far ahead of the sending node's clock, which is what makes
// conservative parallel execution windows safe.
func (m *Machine) Lookahead() sim.Time {
	return m.Cfg.Net.FixedNs + m.Cfg.Net.HopNs
}

// MaxClock returns the largest node clock, i.e. the parallel makespan.
func (m *Machine) MaxClock() sim.Time {
	var max sim.Time
	for _, n := range m.nodes {
		if n.Clock > max {
			max = n.Clock
		}
	}
	return max
}

// Utilization returns total busy time divided by (makespan × nodes).
func (m *Machine) Utilization() float64 {
	span := m.MaxClock()
	if span == 0 {
		return 0
	}
	var busy sim.Time
	for _, n := range m.nodes {
		busy += n.Busy
	}
	return float64(busy) / (float64(span) * float64(len(m.nodes)))
}

// TotalInstr sums instruction counts over all nodes.
func (m *Machine) TotalInstr() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.InstrCount
	}
	return t
}

// Charge advances the node clock by instr instructions of compute.
func (n *Node) Charge(instr int) {
	if instr <= 0 {
		return
	}
	d := sim.Time(float64(instr)*n.m.nsPerInstr + 0.5)
	n.Clock += d
	n.Busy += d
	n.InstrCount += uint64(instr)
}

// ChargeNs advances the node clock by raw virtual time (used for modelled
// computation not expressed in instructions).
func (n *Node) ChargeNs(d sim.Time) {
	if d <= 0 {
		return
	}
	n.Clock += d
	n.Busy += d
}

// SyncClock advances the node's clock to at least t without accruing busy
// time, modelling idle waiting (e.g. a timer expiring on an idle node).
func (n *Node) SyncClock(t sim.Time) {
	if n.Clock < t {
		n.Clock = t
	}
}

// Hops returns the routing distance from this node to dst.
func (n *Node) Hops(dst int) int {
	return n.m.Cfg.Topology.Hops(n.ID, dst)
}

// Send transmits p to its destination node. The packet departs at the
// sender's current clock; hardware latency is added by the interconnect
// model, and per-(src,dst) FIFO ordering is enforced (the paper's
// "preservation of transmission order"). Software send cost must already
// have been charged by the caller.
// Send returns the scheduled arrival time of the first physical copy, or
// Dropped if the fault model discarded the packet. Callers that assume a
// reliable interconnect may ignore the result.
func (n *Node) Send(p *Packet) sim.Time {
	return n.sendAt(n.Clock, p)
}

// ControllerSend transmits p on behalf of the node's message controller at
// virtual time at, independent of the processor's clock. It models
// hardware-originated traffic (e.g. transport acknowledgments) that does
// not occupy the CPU: no software cost is charged and the processor may be
// busy or paused. The fault model and FIFO clamp still apply.
func (n *Node) ControllerSend(at sim.Time, p *Packet) sim.Time {
	return n.sendAt(at, p)
}

func (n *Node) sendAt(at sim.Time, p *Packet) sim.Time {
	if p.Dst < 0 || p.Dst >= len(n.m.nodes) {
		panic(fmt.Sprintf("machine: send to invalid node %d", p.Dst))
	}
	p.Src = n.ID
	p.era = n.m.era
	dst := n.m.nodes[p.Dst]
	hops := n.m.Cfg.Topology.Hops(n.ID, p.Dst)
	base := n.m.Cfg.Net.Latency(hops, p.Size)

	n.PacketsSent++
	n.BytesSent += uint64(p.Size)
	if p.Msgs > 1 {
		n.MsgsSent += uint64(p.Msgs)
	} else {
		n.MsgsSent++
	}

	// Consult the fault model: one extra-latency entry per physical copy.
	copies := oneCopy
	if n.m.faults != nil {
		copies = n.m.faults.Link(n.ID, p.Dst, at, p.Size)
	}
	if len(copies) == 0 {
		n.PacketsDropped++
		if n.m.faultSink != nil {
			n.m.faultSink.PacketDropped(n.ID, p.Dst, at, p.Category)
		}
		// The packet never reaches a receiver, so the sender recycles it.
		n.ReleasePacket(p)
		return Dropped
	}
	first := Dropped
	for i, extra := range copies {
		cp := p
		if i > 0 {
			cp = n.pktSlab.New()
			*cp = *p
			n.PacketsDuped++
			if n.m.faultSink != nil {
				n.m.faultSink.PacketDuplicated(n.ID, p.Dst, at, p.Category)
			}
		}
		arrival := at + base + extra
		// Per-(src,dst) FIFO ordering is enforced per copy (the paper's
		// "preservation of transmission order"): jitter delays but never
		// reorders a link; only drop+retransmit can reorder logically.
		// Control-channel traffic (Packet.Ctrl) is clamped separately so
		// protocol packets never queue behind the data stream.
		clamp := dst.lastArrival
		if p.Ctrl {
			clamp = dst.lastCtrl
		}
		if last := clamp[n.ID]; arrival <= last {
			arrival = last + 1
		}
		clamp[n.ID] = arrival
		cp.Arrival = arrival
		if i == 0 {
			first = arrival
		}
		n.m.Eng.ScheduleOn(n.lane, dst.lane, arrival, n.m.deliverKind, cp)
	}
	return first
}

// Dropped is returned by Send when the fault model discarded the packet.
const Dropped = sim.Time(-1)

// oneCopy is the fault-free delivery schedule, shared to keep the common
// path allocation-free.
var oneCopy = []sim.Time{0}

// BeginOutage crashes the node until the given virtual time: all packets
// already in its receive queue are lost, and packets arriving while the node
// is down are discarded at the message controller. Higher layers (package
// checkpoint) are responsible for discarding their own per-node state and
// for restoring it at restart; the machine only models the dead interval.
func (n *Node) BeginOutage(until sim.Time) {
	n.downUntil = until
	for i, p := range n.rx {
		n.rx[i] = nil
		n.CrashDrops++
		n.ReleasePacket(p)
	}
	n.rx = n.rx[:0]
}

// EndOutage marks the node as up again, advances its clock to the restart
// time without accruing busy time, and schedules a scheduler turn so restored
// work resumes.
func (n *Node) EndOutage(at sim.Time) {
	n.downUntil = 0
	n.SyncClock(at)
	n.ensureResume()
}

// Down reports whether the node is inside a crash outage at time at.
func (n *Node) Down(at sim.Time) bool { return n.downUntil > at }

// BumpEra starts a new machine timeline: every packet currently in flight
// (scheduled for delivery but not yet delivered) is revoked and will be
// discarded at its destination's controller. Called by the checkpoint
// subsystem when a global restore rolls the runtime back to a snapshot.
func (m *Machine) BumpEra() { m.era++ }

// DropRx discards every delivered-but-unpolled packet, counting them as
// era drops. Used by a global checkpoint restore to clear the receive
// queues of surviving nodes before their state is rolled back.
func (n *Node) DropRx() {
	for i, p := range n.rx {
		n.rx[i] = nil
		n.EraDrops++
		n.ReleasePacket(p)
	}
	n.rx = n.rx[:0]
}

// TotalEraDrops returns the machine-wide count of packets revoked by
// checkpoint restores.
func (m *Machine) TotalEraDrops() uint64 {
	var t uint64
	for _, n := range m.nodes {
		t += n.EraDrops
	}
	return t
}

// deliver runs at the packet's arrival time on the engine: the message
// controller hook fires first, then the packet joins the node's receive
// queue and the node is woken if idle. Controller-only packets (OnArrive
// set, nil Handler) never reach the processor.
func (n *Node) deliver(p *Packet) {
	if p.era != n.m.era {
		// Launched before a global checkpoint restore: the timeline that
		// produced this packet was rolled back, so it never happened.
		n.EraDrops++
		n.ReleasePacket(p)
		return
	}
	if n.downUntil > p.Arrival {
		// The node is crashed: its message controller is dead, so the packet
		// is lost in its entirety — no OnArrive, no ack, no buffering.
		n.CrashDrops++
		n.ReleasePacket(p)
		return
	}
	if p.OnArrive != nil {
		p.OnArrive(n, p)
		if p.Handler == nil {
			// Consumed entirely at the controller: recycle here.
			n.ReleasePacket(p)
			return
		}
	}
	if n.Clock < p.Arrival {
		n.Clock = p.Arrival
	}
	n.rx = append(n.rx, p)
	n.ensureResume()
}

// Wake schedules the node's scheduler loop if it is not already pending,
// e.g. after external work has been queued on its Runner.
func (n *Node) Wake() { n.ensureResume() }

// Now returns the node's local virtual clock.
func (n *Node) Now() sim.Time { return n.Clock }

// EventNow returns the virtual time of the node's lane: the timestamp of
// the event currently firing on it. Unlike Engine.Now, it is safe from
// handlers running inside a parallel window.
func (n *Node) EventNow() sim.Time { return n.m.Eng.LaneNow(n.lane) }

// Lane returns the node's engine event lane.
func (n *Node) Lane() int { return n.lane }

func (n *Node) ensureResume() {
	if n.resumePending || n.inResume {
		return
	}
	n.resumePending = true
	n.m.Eng.ScheduleOn(n.lane, n.lane, n.Clock, n.m.resumeKind, n)
}

// resumeAt is one node turn, fired at virtual time now: poll arrived
// packets, run one scheduler quantum, and reschedule if work remains.
// Keeping turns small interleaves node progress correctly in virtual time.
func (n *Node) resumeAt(now sim.Time) {
	n.resumePending = false
	if n.downUntil > now {
		// The node crashed after this turn was scheduled: nothing runs. The
		// restart path (EndOutage) schedules a fresh turn for the restored
		// state, so a dead turn is simply discarded, not deferred.
		return
	}
	if f := n.m.faults; f != nil {
		if until := f.PausedUntil(n.ID, now); until > now {
			// The node is inside an injected pause window: defer this turn
			// to the window's end. Arriving packets keep buffering in rx.
			if n.m.faultSink != nil {
				n.m.faultSink.NodePaused(n.ID, now, until)
			}
			n.resumePending = true
			n.m.Eng.ScheduleFuncOn(n.lane, n.lane, until, func() {
				// The pause consumed real (virtual) time on this node, but
				// no busy time: advance the clock without accruing work.
				if n.Clock < until {
					n.Clock = until
				}
				n.resumeAt(until)
			})
			return
		}
	}
	n.inResume = true
	n.Poll()
	more := false
	if n.Runner != nil {
		more = n.Runner.Step()
	}
	n.inResume = false
	if more || len(n.rx) > 0 {
		n.ensureResume()
	}
}

// Poll dispatches all arrived packets to their attached handlers, in
// arrival order. Handlers run on this node and may advance its clock.
func (n *Node) Poll() {
	// Cursor walk instead of shifting the queue per packet: handlers never
	// deliver synchronously (delivery is an engine event), but the bound is
	// re-read each iteration in case that ever changes.
	for i := 0; i < len(n.rx); i++ {
		p := n.rx[i]
		n.rx[i] = nil
		n.PacketsRecvd++
		if p.Handler != nil {
			p.Handler(n, p)
		}
		n.ReleasePacket(p)
	}
	n.rx = n.rx[:0]
}

// PendingRx reports the number of delivered-but-unpolled packets.
func (n *Node) PendingRx() int { return len(n.rx) }
