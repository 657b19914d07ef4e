package remote

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/sim"
	"repro/internal/slab"
	"repro/internal/trace"
)

// Handler categories (Section 5.1), recorded on packets for statistics.
const (
	CatMessage = 1 // normal message transmission between objects
	CatCreate  = 2 // request for remote object creation
	CatChunk   = 3 // reply to remote memory allocation request
	CatService = 4 // other services (load info is piggybacked instead)
	CatAck     = 5 // reliable-delivery acknowledgment (not in the paper)
	CatBatch   = 6 // multi-record hardware packet (per-link batching)
	CatCkpt    = 7 // checkpoint-protocol control (markers, snapshot acks)
)

// packetHeaderBytes models the paper's compact message format: "a total of
// 4 words including routing information, the mail address of the receiver
// object and the message argument" — routing plus handler address fit in
// 8 bytes, the receiver address and arguments are accounted separately.
const packetHeaderBytes = 8

// Options configures the inter-node layer.
type Options struct {
	// StockDepth is the number of pre-delivered chunks kept per
	// (target node, class) pair. Zero disables the stock entirely, forcing
	// every remote creation through a blocking round trip (the ablation
	// baseline for the paper's latency-hiding scheme).
	StockDepth int
	// Placement picks creation targets; nil means RoundRobin.
	Placement Placement
	// Seed initializes the deterministic per-node generators used by
	// randomized placement policies.
	Seed int64

	// Reliable enables the acknowledgment/retry protocol: every inter-node
	// packet carries a per-link sequence number, is retransmitted with
	// exponential backoff until acknowledged, and is deduplicated and
	// delivered in per-link FIFO order at the receiver. Required when the
	// machine injects link faults; off by default because the paper's
	// AP1000 interconnect is reliable and the protocol adds ack traffic.
	Reliable bool
	// RetryTimeout is the base acknowledgment timeout before the first
	// retransmission; it doubles per attempt up to MaxBackoff. Zero selects
	// DefaultRetryTimeout.
	RetryTimeout sim.Time
	// MaxBackoff caps the exponential backoff. Zero selects
	// DefaultMaxBackoff.
	MaxBackoff sim.Time
	// MaxAttempts bounds retransmissions per message; beyond it the message
	// is abandoned (counted in Counters.RelAbandoned, never silently).
	// Zero selects DefaultMaxAttempts.
	MaxAttempts int
	// Trace, when non-nil, receives reliable-delivery events (retries,
	// acks, duplicate suppression, reorder holds).
	Trace trace.Sink
	// Prof, when non-nil, receives per-path attribution for the layer's
	// instruction charges and wire records.
	Prof *profile.Profiler

	// BatchWindow enables per-link packet batching: wire records to the
	// same destination node within this virtual-time window coalesce into
	// one hardware packet, amortising the fixed launch latency. Zero
	// disables batching, keeping the wire path byte-identical to the
	// unbatched engine.
	BatchWindow sim.Time
	// BatchMaxBytes flushes an open batch early once its payload reaches
	// this size; zero selects DefaultBatchBytes.
	BatchMaxBytes int
	// AckDelay replaces the reliable layer's per-copy acknowledgments with
	// cumulative acks emitted on a delayed-ack timer and piggybacked on
	// reverse-direction batches. Effective only with Reliable; zero keeps
	// immediate per-packet acks.
	AckDelay sim.Time
	// LoadHorizon makes load-based placement ignore piggybacked load
	// samples older than this; zero keeps samples forever (the historical
	// behaviour).
	LoadHorizon sim.Time
	// NoLocationCache disables the remote-location cache that
	// short-circuits migration forwarders. The cache is on by default: it
	// is inert until an object migrates.
	NoLocationCache bool
}

// Reliable-delivery protocol defaults. The base timeout covers a small
// message's round trip (~2×1.5µs hardware + ~9µs software each way) with
// headroom for queueing at a loaded receiver.
const (
	DefaultRetryTimeout sim.Time = 60 * sim.Microsecond
	DefaultMaxBackoff   sim.Time = 2 * sim.Millisecond
	DefaultMaxAttempts           = 64
)

// DefaultOptions returns the configuration used by the paper-style runs.
func DefaultOptions() Options {
	return Options{StockDepth: 2, Placement: RoundRobin{}, Seed: 1}
}

// Layer is the inter-node runtime: it implements core.Remote and owns the
// chunk stocks and placement state of every node.
type Layer struct {
	rt    *core.Runtime
	m     *machine.Machine
	opt   Options
	nodes []*nodeState
	rel   *reliable  // nil unless Options.Reliable
	bat   *batcher   // nil unless Options.BatchWindow > 0
	ck    *ckptState // nil unless EnableCheckpoint was called
	locOn bool       // remote-location cache enabled
	optim bool       // optimistic-execution mode (see optimistic.go)

	// hWire is the shared receive handler for all layer packets; the
	// per-send state travels in the packet's Payload as a *wireMsg instead
	// of a freshly allocated closure. hBatchArr/hBatchDel are the shared
	// controller and poll handlers of CatBatch containers.
	hWire     func(*machine.Node, *machine.Packet)
	hBatchArr func(*machine.Node, *machine.Packet)
	hBatchDel func(*machine.Node, *machine.Packet)
}

// wireMsg is the decoded payload of one layer packet. Records are pooled:
// the sender fills one from its node's free list, the receive handler
// recycles it into the receiving node's — they migrate between per-node
// pools exactly like the packets that carry them, so each pool is only
// touched by its own lane. Recycling is skipped when the machine can
// duplicate packets (see wirePooled): a duplicated packet shares the record
// and the handler runs once per copy.
type wireMsg struct {
	src       int
	load      int32
	kind      uint8
	needInit  bool           // wmMigrate: args are the constructor args of an uninitialized object
	to        core.Address   // wmMessage: receiver; wmMigrated: the object's new address
	pat       core.PatternID // wmMessage: pattern
	args      []core.Value   // message or constructor arguments (owned copy); wmMigrate: the image
	argBuf    [2]core.Value  // inline store backing args for small lists
	replyTo   core.Address
	chunk     *core.Object // wmCreate: chunk to initialize; wmChunk: stock refill; wmMigrate/wmMigrated: the migrating object
	cl        *core.Class
	entry     *stockEntry        // requester's stock slot, carried through the round trip
	then      func()             // wmChunk: blocked-creation resume
	onCreated func(core.Address) // wmBlockingCreate: requester callback; wmMigrate/wmMigrated: Migrate's onDone
	next      *wireMsg           // free-list link while recycled
}

const (
	wmMessage = uint8(iota + 1)
	wmCreate
	wmBlockingCreate
	wmChunk
	wmLocUpd   // location update: `to` moved to `replyTo` (forward short-circuit)
	wmCkpt     // checkpoint-protocol control: `then` runs at the receiver
	wmMigrate  // migration transfer: materialize `chunk`'s image at the target
	wmMigrated // migration ack: install the forwarder at the old home
)

// setArgs copies args into the record — inline when they fit, a fresh slice
// otherwise. Senders hand the layer a transient slice (core.Remote's
// SendMessage contract stages arguments in a per-node scratch buffer), so
// the record must own its copy until delivery.
func (w *wireMsg) setArgs(args []core.Value) {
	switch {
	case len(args) == 0:
		w.args = nil
	case len(args) <= len(w.argBuf):
		nc := copy(w.argBuf[:], args)
		w.args = w.argBuf[:nc:nc]
	default:
		w.args = append([]core.Value(nil), args...)
	}
}

// wirePooled reports whether wireMsg records may be recycled: safe unless a
// fault model can hand a duplicated packet (and its shared Payload record)
// to the handler twice. The reliable protocol deduplicates by sequence
// number before the handler runs, so it restores pooling under faults.
func (l *Layer) wirePooled() bool {
	if l.ck != nil {
		// Checkpoint retention holds payload records by reference until they
		// become stable; recycling would rewrite a record the replay path may
		// still need verbatim.
		return false
	}
	if l.optim {
		// A rollback replays deliveries whose payload records must still
		// hold their original content.
		return false
	}
	return l.m.Faults() == nil || l.rel != nil
}

// acquireWire returns a zeroed payload record for a send from src: a
// recycled one when src's free list has any, else one carved from src's
// slab. When records are never recycled (see wirePooled) every record comes
// from the slab.
func (l *Layer) acquireWire(src int) *wireMsg {
	ns := l.nodes[src]
	if w := ns.wireFree; w != nil {
		ns.wireFree = w.next
		w.next = nil
		return w
	}
	return ns.wireSlab.New()
}

func (l *Layer) releaseWire(dst int, w *wireMsg) {
	if !l.wirePooled() {
		return
	}
	ns := l.nodes[dst]
	*w = wireMsg{next: ns.wireFree}
	ns.wireFree = w
}

// handleWire is the single receive-side dispatcher for categories 1-3: the
// compiler-generated specialized handlers of Section 5.1, indexed by the
// payload's kind tag rather than modelled as per-send closures.
func (l *Layer) handleWire(rn *machine.Node, p *machine.Packet) {
	w := p.Payload.(*wireMsg)
	c := l.cost()
	extract := c.RemoteRecvExtract
	if l.nodes[rn.ID].batchPos > 1 {
		// Second-or-later record of a batched packet: the poll, header
		// parse and buffer management were paid by the first record.
		extract = c.BatchRecvExtract
	}
	l.noteLoad(rn.ID, w.src, w.load, p.Arrival)
	nrt := l.rt.NodeRT(rn.ID)
	switch w.kind {
	case wmMessage:
		rn.Charge(extract + c.RemoteHandlerCall)
		l.profCharge(rn, profile.RemoteRecv, extract+c.RemoteHandlerCall)
		if l.locOn {
			if fwd := w.to.Obj.ForwardTarget(); !fwd.IsNil() {
				// Stale address: the object migrated away. Tell the sender
				// where it lives now, then let the forwarder re-send.
				l.advertiseLocation(rn, w.src, w.to, fwd)
			}
		}
		nrt.DeliverFrame(w.to.Obj, nrt.NewFrame(w.pat, w.args, w.replyTo), true)
	case wmCreate:
		rn.Charge(extract + c.RemoteHandlerCall + c.ChunkInit)
		l.profCharge(rn, profile.Create, extract+c.RemoteHandlerCall+c.ChunkInit)
		nrt.SetPath(profile.Create)
		l.rt.InitChunk(nrt, w.chunk, w.cl, w.args)
		// Step 4: allocate the replacement chunk and return its address.
		rn.Charge(c.ChunkRefill)
		l.profCharge(rn, profile.Create, c.ChunkRefill)
		l.sendChunkReply(nrt, w.src, l.rt.NewFaultChunk(rn.ID), w.entry, nil)
	case wmBlockingCreate:
		rn.Charge(extract + c.RemoteHandlerCall + c.ChunkInit)
		l.profCharge(rn, profile.Create, extract+c.RemoteHandlerCall+c.ChunkInit)
		nrt.SetPath(profile.Create)
		created := l.rt.NewFaultChunk(rn.ID)
		l.rt.InitChunk(nrt, created, w.cl, w.args)
		rn.Charge(c.ChunkRefill)
		l.profCharge(rn, profile.Create, c.ChunkRefill)
		addr := created.Addr()
		onCreated := w.onCreated
		l.sendChunkReply(nrt, w.src, l.rt.NewFaultChunk(rn.ID), w.entry, func() { onCreated(addr) })
	case wmLocUpd:
		rn.Charge(extract + c.RemoteHandlerCall)
		l.profCharge(rn, profile.Forward, extract+c.RemoteHandlerCall)
		l.learnLocation(rn, w.to, w.replyTo)
	case wmCkpt:
		rn.Charge(extract + c.RemoteHandlerCall)
		l.profCharge(rn, profile.Ckpt, extract+c.RemoteHandlerCall)
		nrt.SetPath(profile.Ckpt)
		if w.then != nil {
			w.then()
		}
	case wmChunk:
		rn.Charge(extract + c.RemoteHandlerCall + c.StockPush)
		l.profCharge(rn, profile.Create, extract+c.RemoteHandlerCall+c.StockPush)
		nrt.SetPath(profile.Create)
		if l.opt.StockDepth > 0 {
			// The stock is capped at its configured depth: a chunk that
			// would overfill it (after a miss) is simply dropped back to
			// the target's allocator. The entry pointer is the requester's
			// own slot, carried through the round trip — and this packet is
			// addressed to the requester, so the append stays lane-local.
			if e := w.entry; len(e.chunks) < l.opt.StockDepth {
				e.chunks = append(e.chunks, w.chunk)
			}
		}
		if w.then != nil {
			w.then()
		}
	case wmMigrate:
		// Migration is a category-4 service handled outside the batch
		// extraction discount: it always pays full extraction.
		rn.Charge(c.RemoteRecvExtract + c.RemoteHandlerCall + c.MigrateUnpack)
		l.profCharge(rn, profile.Forward, c.RemoteRecvExtract+c.RemoteHandlerCall+c.MigrateUnpack)
		l.adoptMigrated(nrt, w)
	case wmMigrated:
		rn.Charge(c.RemoteRecvExtract + c.RemoteHandlerCall)
		l.profCharge(rn, profile.Forward, c.RemoteRecvExtract+c.RemoteHandlerCall)
		l.rt.CompleteMigration(nrt, w.chunk, w.to)
		if w.onCreated != nil {
			w.onCreated(w.to)
		}
	default:
		panic(fmt.Sprintf("remote: unknown wire kind %d", w.kind))
	}
	l.releaseWire(rn.ID, w)
}

// MsgsSent returns the machine-wide count of category-1 sends.
func (l *Layer) MsgsSent() uint64 { return l.sumCounter(0) }

// CreatesSent returns the machine-wide count of category-2 sends.
func (l *Layer) CreatesSent() uint64 { return l.sumCounter(1) }

// ChunksSent returns the machine-wide count of category-3 sends.
func (l *Layer) ChunksSent() uint64 { return l.sumCounter(2) }

func (l *Layer) sumCounter(i int) uint64 {
	var t uint64
	for _, ns := range l.nodes {
		t += ns.sent[i]
	}
	return t
}

type stockKey struct {
	node int
	cls  *core.Class
}

// stockEntry is one node's chunk stock for a (target, class) pair. It is
// looked up once per remote creation; the refill round trip carries the
// entry pointer itself, so the category-2/3 handlers touch no maps.
type stockEntry struct {
	seeded bool
	chunks []*core.Object
}

// stockEntry returns (creating on first use) the stock slot for key.
func (ns *nodeState) stockEntry(key stockKey) *stockEntry {
	e := ns.stock[key]
	if e == nil {
		e = &stockEntry{}
		ns.stock[key] = e
	}
	return e
}

type nodeState struct {
	id     int
	rr     int
	rrNext int
	rng    uint64
	stock  map[stockKey]*stockEntry
	loads  []int32    // last known scheduling-queue lengths, piggybacked
	loadAt []sim.Time // arrival time of each load sample (staleness horizon)
	sent   [3]uint64  // category 1/2/3 sends, node-local (lane-safe)

	wireFree  *wireMsg           // recycled payload records (lane-local)
	wireSlab  slab.Slab[wireMsg] // fresh payload records once wireFree is empty
	batchFree []*wireBatch       // recycled batch containers (lane-local)
	batchPos  int                // 1-based record cursor while delivering a batch

	// Remote-location cache: stale address -> latest known home, filled by
	// wmLocUpd messages from forwarding nodes. advert is the forwarding
	// side: the location last advertised per (sender, migrated object), so
	// each sender is told about each migration generation exactly once.
	locCache map[core.Address]core.Address
	advert   map[advertKey]core.Address
}

type advertKey struct {
	src int
	obj *core.Object
}

func (ns *nodeState) nextRand() uint64 {
	// xorshift64: deterministic, node-local.
	x := ns.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ns.rng = x
	return x
}

// staleLoad makes out-of-horizon samples lose to any fresh information when
// load-based placement compares candidates.
const staleLoad = int(1) << 30

func (ns *nodeState) knownLoad(node int, l *Layer) int {
	if node == ns.id {
		return l.rt.NodeRT(node).SchedQueueLen()
	}
	if h := l.opt.LoadHorizon; h > 0 {
		if at := ns.loadAt[node]; at == 0 || at+h < l.m.Node(ns.id).Now() {
			// No sample inside the horizon: treat the peer as unknown
			// rather than idle, so placement stops chasing stale minima.
			return staleLoad
		}
	}
	return int(ns.loads[node])
}

// Attach builds the layer and installs it into the runtime. Must run before
// the runtime freezes.
func Attach(rt *core.Runtime, opt Options) *Layer {
	if opt.Placement == nil {
		opt.Placement = RoundRobin{}
	}
	l := &Layer{rt: rt, m: rt.M, opt: opt, locOn: !opt.NoLocationCache}
	l.hWire = l.handleWire
	l.nodes = make([]*nodeState, rt.Nodes())
	for i := range l.nodes {
		l.nodes[i] = &nodeState{
			id:     i,
			rng:    uint64(opt.Seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9 + 1,
			stock:  make(map[stockKey]*stockEntry),
			loads:  make([]int32, rt.Nodes()),
			loadAt: make([]sim.Time, rt.Nodes()),
		}
	}
	if opt.Reliable {
		l.rel = newReliable(l)
	}
	if opt.BatchWindow > 0 {
		l.bat = newBatcher(l, opt.BatchWindow, opt.BatchMaxBytes)
		l.hBatchArr = l.handleBatchArrive
		l.hBatchDel = l.handleBatchDeliver
	}
	if rt.M.Faults() != nil && rt.M.FaultSink() == nil {
		rt.M.SetFaultSink(statsSink{l})
	}
	rt.SetRemote(l)
	return l
}

// statsSink attributes machine-level fault events to the affected node's
// counters and the trace ring. Drops and duplications are charged to the
// sending node; pauses to the paused node.
type statsSink struct{ l *Layer }

func (s statsSink) PacketDropped(src, dst int, at sim.Time, category int) {
	s.l.rt.NodeRT(src).C.LinkDrops++
	if s.l.opt.Trace != nil {
		s.l.tracef(at, src, trace.EvLinkDrop, "dropped cat-%d packet to n%d", category, dst)
	}
}

func (s statsSink) PacketDuplicated(src, dst int, at sim.Time, category int) {
	s.l.rt.NodeRT(src).C.LinkDups++
	if s.l.opt.Trace != nil {
		s.l.tracef(at, src, trace.EvLinkDup, "duplicated cat-%d packet to n%d", category, dst)
	}
}

func (s statsSink) NodePaused(node int, at, until sim.Time) {
	s.l.rt.NodeRT(node).C.NodePauses++
	if s.l.opt.Trace != nil {
		s.l.tracef(at, node, trace.EvNodePause, "paused until %v", until)
	}
}

// transmit sends a packet either directly over the machine's interconnect
// (through the per-link batcher when batching is on) or, when the reliable
// protocol is enabled, through the ack/retry layer. All inter-node traffic
// of the layer (categories 1-4) funnels through here.
func (l *Layer) transmit(mn *machine.Node, pkt *machine.Packet) {
	// Attribute the logical wire record once, here at the funnel; batch
	// containers and retransmitted copies are attributed at their own sites
	// so nothing is counted twice.
	if np := l.prof(mn.ID); np != nil {
		np.Packet(pathForCategory(pkt.Category), int(pkt.Size), mn.Now())
	}
	if l.rel != nil {
		l.rel.send(mn, pkt)
		return
	}
	l.send(mn, pkt)
}

// Reliable reports whether the ack/retry protocol is active.
func (l *Layer) Reliable() bool { return l.rel != nil }

// tracef records a layer event. Callers check l.opt.Trace first, so an
// untraced run never boxes the arguments.
func (l *Layer) tracef(at sim.Time, node int, kind trace.Kind, format string, args ...any) {
	if l.opt.Trace != nil {
		l.opt.Trace.Event(trace.Event{
			At:   at,
			Node: node,
			Kind: kind,
			What: fmt.Sprintf(format, args...),
		})
	}
}

// prof returns node's attribution accumulator (nil when profiling is off).
func (l *Layer) prof(node int) *profile.NodeProf {
	if l.opt.Prof == nil {
		return nil
	}
	return l.opt.Prof.Node(node)
}

// profCharge attributes instructions the layer charged directly on a
// machine node (those charges bypass the core's attribution register).
func (l *Layer) profCharge(mn *machine.Node, p profile.Path, instr int) {
	if np := l.prof(mn.ID); np != nil {
		np.ChargeInstr(p, instr, mn.Now())
	}
}

// pathForCategory maps a packet category to its attribution path.
func pathForCategory(cat uint8) profile.Path {
	switch cat {
	case CatMessage:
		return profile.RemoteSend
	case CatCreate, CatChunk:
		return profile.Create
	case CatService:
		return profile.Forward
	case CatAck:
		return profile.Ack
	case CatCkpt:
		return profile.Ckpt
	}
	return profile.Other
}

// Placement returns the active placement policy.
func (l *Layer) Placement() Placement { return l.opt.Placement }

// StockDepth returns the configured chunk-stock depth.
func (l *Layer) StockDepth() int { return l.opt.StockDepth }

// cost returns the machine's instruction-cost table.
func (l *Layer) cost() *machine.Cost { return &l.m.Cfg.Cost }

// piggyback records the sender's load in the packet and, at delivery,
// updates the receiver's view — the category-4 load-monitoring service
// riding on every packet.
func (l *Layer) piggyback(src int) int32 {
	return int32(l.rt.NodeRT(src).SchedQueueLen())
}

// noteLoad stores a piggybacked load sample with the arrival time it was
// observed at, so placement can discount samples beyond the LoadHorizon.
func (l *Layer) noteLoad(dst, src int, load int32, at sim.Time) {
	ns := l.nodes[dst]
	ns.loads[src] = load
	ns.loadAt[src] = at
}

// SendMessage implements core.Remote: category-1 normal message
// transmission. The compiler-generated specialized handler is modelled by a
// closure carrying the receiver and the typed arguments — no runtime tags
// travel on the wire (Section 5.1).
func (l *Layer) SendMessage(n *core.NodeRT, to core.Address, p core.PatternID, args []core.Value, replyTo core.Address) {
	src := n.ID()
	if ns := l.nodes[src]; len(ns.locCache) > 0 {
		if fresh, ok := ns.locCache[to]; ok {
			// Collapse chains left by repeated migrations, compressing the
			// path for subsequent sends.
			for hops := 0; hops < 8; hops++ {
				next, ok := ns.locCache[fresh]
				if !ok {
					break
				}
				fresh = next
			}
			ns.locCache[to] = fresh
			n.C.LocCacheHits++
			to = fresh
			if to.Node == src {
				// The object migrated to this very node: re-enter the local
				// send path instead of putting a packet on the wire.
				n.Send(to, p, args, replyTo)
				return
			}
		}
	}
	c := l.cost()
	mn := n.MachineNode()
	mn.Charge(c.RemoteSendSetup)
	l.profCharge(mn, profile.RemoteSend, c.RemoteSendSetup)
	if np := l.prof(src); np != nil {
		np.CountEvent(profile.RemoteSend, mn.Now())
	}
	l.nodes[src].sent[0]++
	size := packetHeaderBytes + core.ArgsSize(args)
	if !replyTo.IsNil() {
		size += 8
	}
	w := l.acquireWire(src)
	w.kind = wmMessage
	w.src = src
	w.load = l.piggyback(src)
	w.to = to
	w.pat = p
	w.setArgs(args)
	w.replyTo = replyTo
	pkt := mn.AcquirePacket()
	pkt.Dst = int32(to.Node)
	pkt.Size = int32(size)
	pkt.Category = CatMessage
	pkt.Handler = l.hWire
	pkt.Payload = w
	l.transmit(mn, pkt)
}

// Create implements core.Remote: remote object creation with latency hiding
// (Section 5.2). The placement policy picks a target; a same-node pick is a
// plain local create. Otherwise the mail address is obtained locally from
// the chunk stock and k continues immediately; only on an empty stock does
// the creating object block for a round trip.
func (l *Layer) Create(ctx *core.Ctx, cl *core.Class, ctorArgs []core.Value, k func(*core.Ctx, core.Address)) {
	target := l.opt.Placement.Pick(l, ctx.NodeID(), cl)
	l.CreateOn(ctx, target, cl, ctorArgs, k)
}

// CreateOn creates an object on an explicit target node.
func (l *Layer) CreateOn(ctx *core.Ctx, target int, cl *core.Class, ctorArgs []core.Value, k func(*core.Ctx, core.Address)) {
	if target == ctx.NodeID() {
		k(ctx, ctx.NewLocal(cl, ctorArgs...))
		return
	}
	n := ctx.NodeRT()
	c := l.cost()
	ns := l.nodes[n.ID()]
	e := ns.stockEntry(stockKey{node: target, cls: cl})

	if !e.seeded && l.opt.StockDepth > 0 {
		// Pre-delivery: at boot every node receives an initial stock of
		// chunk addresses for its peers. Modelled as already present (the
		// paper's "predelivered stocks"), materialized on first use to keep
		// memory proportional to the pairs actually communicating.
		e.seeded = true
		for i := 0; i < l.opt.StockDepth; i++ {
			// The chunk is homed on target but allocated from the requester's
			// lane; NewFaultChunkFrom keeps the registration safe (and
			// revocable) under optimistic execution.
			e.chunks = append(e.chunks, l.rt.NewFaultChunkFrom(n.ID(), target))
		}
	}

	if len(e.chunks) > 0 {
		chunk := e.chunks[len(e.chunks)-1]
		e.chunks = e.chunks[:len(e.chunks)-1]
		n.MachineNode().Charge(c.StockPop)
		l.profCharge(n.MachineNode(), profile.Create, c.StockPop)
		if np := l.prof(n.ID()); np != nil {
			np.CountEvent(profile.Create, n.MachineNode().Now())
		}
		n.C.StockHits++
		n.C.RemoteCreations++
		l.sendCreateRequest(n, target, chunk, cl, ctorArgs, e)
		// Step 1 of the protocol: the mail address is known locally, before
		// the creation message even departs — latency hidden, no context
		// switch.
		k(ctx, chunk.Addr())
		return
	}

	// Empty stock: the creating object must block until the target both
	// creates the object and replies (split-phase round trip).
	if np := l.prof(n.ID()); np != nil {
		np.CountEvent(profile.Create, n.MachineNode().Now())
	}
	n.C.StockMisses++
	n.C.RemoteCreations++
	self := ctx.SelfObject()
	frame := ctx.CurrentFrame()
	if l.ck != nil {
		// The frame pointer rides the request's onCreated closure, which
		// checkpoint retention may replay after a crash — long after the
		// original invocation completed and released the frame. Pin it out
		// of the pool so the replayed resume finds its content intact.
		n.PinFrame(frame)
	}
	l.sendBlockingCreate(n, target, cl, ctorArgs, e, func(addr core.Address) {
		n.ResumeSaved(self, frame, func(ctx2 *core.Ctx) { k(ctx2, addr) })
	})
	ctx.BlockExternal()
}

// sendCreateRequest transmits the category-2 creation request for a chunk
// whose address the requester already holds. The target initializes the
// chunk (class-specific handler), allocates a replacement chunk, and sends
// its address back as a category-3 reply.
func (l *Layer) sendCreateRequest(n *core.NodeRT, target int, chunk *core.Object, cl *core.Class, ctorArgs []core.Value, e *stockEntry) {
	sn := n.MachineNode()
	sn.Charge(l.cost().RemoteSendSetup)
	l.profCharge(sn, profile.Create, l.cost().RemoteSendSetup)
	l.nodes[n.ID()].sent[1]++
	src := n.ID()
	w := l.acquireWire(src)
	w.kind = wmCreate
	w.src = src
	w.load = l.piggyback(src)
	w.chunk = chunk
	w.cl = cl
	w.setArgs(ctorArgs)
	w.entry = e
	pkt := sn.AcquirePacket()
	pkt.Dst = int32(target)
	pkt.Size = int32(packetHeaderBytes + 8 + core.ArgsSize(ctorArgs))
	pkt.Category = CatCreate
	pkt.Handler = l.hWire
	pkt.Payload = w
	l.transmit(sn, pkt)
}

// sendBlockingCreate is the stock-miss path: a category-2 request without a
// pre-held chunk. The target allocates, initializes, and replies with both
// the created object's address and a replacement chunk for the stock.
func (l *Layer) sendBlockingCreate(n *core.NodeRT, target int, cl *core.Class, ctorArgs []core.Value, e *stockEntry, onCreated func(core.Address)) {
	sn := n.MachineNode()
	sn.Charge(l.cost().RemoteSendSetup)
	l.profCharge(sn, profile.Create, l.cost().RemoteSendSetup)
	l.nodes[n.ID()].sent[1]++
	src := n.ID()
	w := l.acquireWire(src)
	w.kind = wmBlockingCreate
	w.src = src
	w.load = l.piggyback(src)
	w.cl = cl
	w.setArgs(ctorArgs)
	w.entry = e
	w.onCreated = onCreated
	pkt := sn.AcquirePacket()
	pkt.Dst = int32(target)
	pkt.Size = int32(packetHeaderBytes + core.ArgsSize(ctorArgs))
	pkt.Category = CatCreate
	pkt.Handler = l.hWire
	pkt.Payload = w
	l.transmit(sn, pkt)
}

// sendChunkReply is the category-3 handler: deliver a replacement chunk
// address to the requester's stock, and optionally resume a creation that
// blocked on an empty stock.
func (l *Layer) sendChunkReply(n *core.NodeRT, requester int, chunk *core.Object, e *stockEntry, then func()) {
	sn := n.MachineNode()
	sn.Charge(l.cost().RemoteSendSetup)
	l.profCharge(sn, profile.Create, l.cost().RemoteSendSetup)
	l.nodes[n.ID()].sent[2]++
	src := n.ID()
	w := l.acquireWire(src)
	w.kind = wmChunk
	w.src = src
	w.load = l.piggyback(src)
	w.chunk = chunk
	w.entry = e
	w.then = then
	pkt := sn.AcquirePacket()
	pkt.Dst = int32(requester)
	pkt.Size = packetHeaderBytes + 8
	pkt.Category = CatChunk
	pkt.Handler = l.hWire
	pkt.Payload = w
	l.transmit(sn, pkt)
}

// advertiseLocation tells a stale sender where a migrated object lives now —
// the forwarding short-circuit. It runs at the forwarding node when a
// category-1 message arrives for an object that has moved away. One update
// travels per (sender, migration generation): the advert map remembers what
// each sender was last told, so steady-state forwarding adds no traffic.
func (l *Layer) advertiseLocation(rn *machine.Node, src int, stale, fwd core.Address) {
	if src == rn.ID {
		return
	}
	// Chase a local forwarding chain (the object may have passed through
	// this node more than once); forwarders on other nodes belong to other
	// lanes and cannot be inspected here.
	final := fwd
	for hops := 0; hops < 8 && final.Node == rn.ID; hops++ {
		next := final.Obj.ForwardTarget()
		if next.IsNil() {
			break
		}
		final = next
	}
	ns := l.nodes[rn.ID]
	if ns.advert == nil {
		ns.advert = make(map[advertKey]core.Address)
	}
	key := advertKey{src: src, obj: stale.Obj}
	if ns.advert[key] == final {
		return
	}
	ns.advert[key] = final
	c := l.cost()
	l.rt.NodeRT(rn.ID).C.LocCacheMisses++
	rn.Charge(c.RemoteSendSetup)
	l.profCharge(rn, profile.Forward, c.RemoteSendSetup)
	w := l.acquireWire(rn.ID)
	w.kind = wmLocUpd
	w.src = rn.ID
	w.load = l.piggyback(rn.ID)
	w.to = stale
	w.replyTo = final
	pkt := rn.AcquirePacket()
	pkt.Dst = int32(src)
	pkt.Size = packetHeaderBytes + 16 // stale + authoritative address
	pkt.Category = CatService
	pkt.Handler = l.hWire
	pkt.Payload = w
	if l.opt.Trace != nil {
		l.tracef(rn.Now(), rn.ID, trace.EvLocUpdate,
			"advertise to n%d: object moved n%d -> n%d", src, stale.Node, final.Node)
	}
	l.transmit(rn, pkt)
}

// learnLocation installs an advertised location in the stale sender's cache.
// A newer address for an already-cached object overwrites (invalidates) the
// old entry; chains from repeated migrations collapse at lookup time.
func (l *Layer) learnLocation(rn *machine.Node, stale, fresh core.Address) {
	if fresh.IsNil() || stale == fresh {
		return
	}
	ns := l.nodes[rn.ID]
	cc := &l.rt.NodeRT(rn.ID).C
	if ns.locCache == nil {
		ns.locCache = make(map[core.Address]core.Address)
	}
	if old, ok := ns.locCache[stale]; ok {
		if old == fresh {
			return
		}
		cc.LocCacheInvalidates++
	}
	ns.locCache[stale] = fresh
	if l.opt.Trace != nil {
		l.tracef(rn.Now(), rn.ID, trace.EvLocUpdate,
			"learned: n%d object now at n%d", stale.Node, fresh.Node)
	}
}

// LocationCache reports whether the remote-location cache is enabled.
func (l *Layer) LocationCache() bool { return l.locOn }

// Batching reports the active batch window and byte budget (zeroes when
// batching is disabled).
func (l *Layer) Batching() (sim.Time, int) {
	if l.bat == nil {
		return 0, 0
	}
	return l.bat.window, l.bat.maxBytes
}

// AckDelay reports the delayed-ack interval (zero when acks are immediate or
// the reliable protocol is off).
func (l *Layer) AckDelay() sim.Time {
	if l.rel == nil {
		return 0
	}
	return l.rel.ackDelay
}

// StockLevel reports the current stock depth a node holds for a target/class
// pair (for tests and reports).
func (l *Layer) StockLevel(node, target int, cl *core.Class) int {
	e := l.nodes[node].stock[stockKey{node: target, cls: cl}]
	if e == nil {
		return 0
	}
	return len(e.chunks)
}

// String describes the layer configuration.
func (l *Layer) String() string {
	s := fmt.Sprintf("remote{stock=%d placement=%s", l.opt.StockDepth, l.opt.Placement.Name())
	if l.bat != nil {
		s += fmt.Sprintf(" batch=%v/%dB", l.bat.window, l.bat.maxBytes)
	}
	if l.rel != nil {
		if l.rel.ackDelay > 0 {
			s += fmt.Sprintf(" reliable ackDelay=%v", l.rel.ackDelay)
		} else {
			s += " reliable"
		}
	}
	if !l.locOn {
		s += " locCache=off"
	}
	return s + "}"
}
