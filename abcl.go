// Package abcl is the public API of the ABCL/onAP1000 reproduction: a
// concurrent object-oriented language runtime in the style of Taura,
// Matsuoka and Yonezawa's PPOPP'93 paper "An Efficient Implementation Scheme
// of Concurrent Object-Oriented Languages on Stock Multicomputers", running
// on a simulated stock multicomputer.
//
// A System bundles a simulated machine (nodes, torus network, instruction
// cost model), the intra-node runtime (multiple virtual function tables and
// integrated stack/queue scheduling) and the inter-node layer (Active
// Message handlers and chunk-stock remote creation). Programs define message
// patterns and classes, create objects, inject initial messages, and run the
// system to quiescence in virtual time:
//
//	sys, _ := abcl.NewSystem(abcl.WithNodes(4))
//	hello := sys.Pattern("hello", 0)
//	greeter := sys.Class("greeter", 0, nil)
//	greeter.Method(hello, func(ctx *abcl.Ctx) { fmt.Println("hi") })
//	obj := sys.NewObjectOn(0, greeter)
//	sys.Send(obj, hello)
//	sys.Run()
//
// Method bodies are written in continuation-passing style: operations that
// may block (Ctx.SendNow, Ctx.WaitFor, Ctx.Create) take the rest of the
// method as an explicit continuation, mirroring the paper's saved-context
// heap frames.
package abcl

import (
	"errors"
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/profile"
	"repro/internal/remote"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Re-exported runtime types. See package core for their documentation.
type (
	// Value is a message argument or state variable.
	Value = core.Value
	// Address is an object's mail address: (node, pointer).
	Address = core.Address
	// Ctx is a method invocation context.
	Ctx = core.Ctx
	// Frame is a received message (pattern + arguments).
	Frame = core.Frame
	// Pattern identifies a message pattern.
	Pattern = core.PatternID
	// Class describes a concurrent object class.
	Class = core.Class
	// InitCtx is the context passed to lazy state initializers.
	InitCtx = core.InitCtx
	// InitFunc lazily initializes an object's state.
	InitFunc = core.InitFunc
	// MethodFunc is a compiled method body.
	MethodFunc = core.MethodFunc
	// Policy selects stack-based or naive scheduling.
	Policy = core.Policy
	// Counters aggregates runtime event counts.
	Counters = stats.Counters
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Placement chooses nodes for remote creation.
	Placement = remote.Placement
	// MachineConfig is the full simulated-machine configuration.
	MachineConfig = machine.Config
	// FaultPlan declares deterministic link and node faults; the zero value
	// means a fault-free machine. See package fault.
	FaultPlan = fault.Plan
	// LinkFault is one per-link fault rule inside a FaultPlan.
	LinkFault = fault.LinkFault
	// NodePause pauses one node's processor for a virtual-time window.
	NodePause = fault.NodePause
	// NodeCrash kills one node at a virtual time and restarts it after a
	// delay; recovery rolls the machine back to the last checkpoint. See
	// WithCheckpoint.
	NodeCrash = fault.NodeCrash
	// Snapshot is one complete coordinated checkpoint (System.Snapshot).
	Snapshot = checkpoint.Snapshot
	// Snapshotter converts one class's state box to and from its
	// stable-store image (System.RegisterSnapshotter). Classes without one
	// use the default plain-copy codec.
	Snapshotter = checkpoint.Snapshotter
	// Sink observes runtime events (WithObserver). See the trace package for
	// the full contract: sinks are called synchronously from the simulation's
	// single deterministic event order and must not retain the Event.
	Sink = trace.Sink
	// Event is one observed runtime event.
	Event = trace.Event
	// ProfileReport is the cost-attribution report (System.Report().Profile):
	// per-path instruction/packet/stable-store totals, the dormant fraction,
	// and optional per-class and time-series breakdowns.
	ProfileReport = profile.Report
	// PathStat is one row of the profiler's per-path cost table.
	PathStat = profile.PathStat
	// ClassStat is one row of the profiler's per-class table.
	ClassStat = profile.ClassStat
	// ProfileSlice is one time-series bucket of a windowed profile.
	ProfileSlice = profile.Slice
)

// Wildcard matches any node in a LinkFault's Src or Dst.
const Wildcard = fault.Wildcard

// Virtual-time units, for option arguments such as WithBatching and
// WithDelayedAcks.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// UniformFaults builds a FaultPlan applying the same drop probability,
// duplication probability and maximum latency jitter to every inter-node
// link.
func UniformFaults(drop, dup float64, jitter Time) FaultPlan {
	return fault.UniformLinks(drop, dup, jitter)
}

// Scheduling policies.
const (
	StackBased = core.PolicyStackBased
	Naive      = core.PolicyNaive
)

// SendHint encodes the compile-time send optimizations of the paper's
// Section 6.1; see core.SendHint.
type SendHint = core.SendHint

// Send-site optimization hints (Section 6.1): with all four applied the
// dormant-path send costs 8 instructions instead of 25.
const (
	HintKnownLocal     = core.HintKnownLocal
	HintLeafMethod     = core.HintLeafMethod
	HintNoQueueCheck   = core.HintNoQueueCheck
	HintNoPoll         = core.HintNoPoll
	HintFullyOptimized = core.HintFullyOptimized
)

// Nil is the zero Value.
var Nil = core.Nil

// Value constructors, re-exported for ergonomic method bodies.
var (
	// Int makes an integer Value.
	Int = core.IntV
	// Bool makes a boolean Value.
	Bool = core.BoolV
	// Float makes a floating-point Value.
	Float = core.FloatV
	// Str makes a string Value.
	Str = core.StrV
	// Ref makes a mail-address Value.
	Ref = core.RefV
	// Any wraps an opaque immutable payload.
	Any = core.AnyV
)

// Placement policies for remote creation.
var (
	PlaceRoundRobin Placement = remote.RoundRobin{}
	PlaceRandom     Placement = remote.Random{}
	PlaceLocal      Placement = remote.LocalOnly{}
	PlaceLoadBased  Placement = remote.LoadBased{}
	PlaceDepthLocal Placement = remote.DepthLocal{}
)

// DefaultSeed drives placement and fault-injection randomness when no
// WithSeed option is given (and when the legacy Config.Seed is zero). The
// seed is never silently remapped: Seed() always reports the value in use.
const DefaultSeed int64 = 1

// DefaultStockDepth is the chunk-stock depth per (node, class) when neither
// WithChunkStock nor WithoutChunkStock is given.
const DefaultStockDepth = 2

// settings is the resolved configuration an Option edits.
type settings struct {
	nodes       int
	policy      Policy
	maxStack    int
	stock       int // resolved depth; 0 disables the stock
	placement   Placement
	seed        int64
	machine     *machine.Config
	faults      FaultPlan
	exec        ExecutorSpec
	reliable    bool // ack/retry protocol even without faults
	batchWindow Time
	batchBytes  int
	ackDelay    Time
	loadHorizon Time
	noLocCache  bool
	ckptEvery   Time // periodic checkpoint interval; 0 = off
	observer    trace.Sink
	prof        *ProfileOptions
}

// Option configures a System under construction. Options are applied in
// order; later options override earlier ones.
type Option func(*settings) error

// WithNodes sets the processor count (default 1).
func WithNodes(n int) Option {
	return func(s *settings) error {
		if n <= 0 {
			return fmt.Errorf("abcl: WithNodes(%d): node count must be positive", n)
		}
		s.nodes = n
		return nil
	}
}

// WithPolicy selects stack-based (the default) or naive scheduling.
func WithPolicy(p Policy) Option {
	return func(s *settings) error {
		if p != StackBased && p != Naive {
			return fmt.Errorf("abcl: WithPolicy(%v): unknown policy", p)
		}
		s.policy = p
		return nil
	}
}

// WithMaxStackDepth bounds stack-based invocation nesting (default 64).
func WithMaxStackDepth(d int) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("abcl: WithMaxStackDepth(%d): depth must be positive", d)
		}
		s.maxStack = d
		return nil
	}
}

// WithPlacement picks the remote-creation placement policy (default
// PlaceRoundRobin).
func WithPlacement(p Placement) Option {
	return func(s *settings) error {
		if p == nil {
			return fmt.Errorf("abcl: WithPlacement(nil): placement must be non-nil")
		}
		s.placement = p
		return nil
	}
}

// WithSeed sets the seed for deterministic placement and fault injection.
// Zero is rejected — it is too easily a forgotten field; omit the option to
// get DefaultSeed.
func WithSeed(seed int64) Option {
	return func(s *settings) error {
		if seed == 0 {
			return fmt.Errorf("abcl: WithSeed(0): seed must be non-zero (omit the option for DefaultSeed)")
		}
		s.seed = seed
		return nil
	}
}

// WithObserver attaches a trace sink to the runtime: every scheduler, wire,
// reliable-protocol and checkpoint event is delivered to it synchronously, in
// the simulation's single deterministic event order. Multiple observers
// compose via trace.Tee; a trace.NewRing(n) kept by the caller holds the
// last n events for a dump after the run. Sinks must not retain the Event
// or any memory reachable from it beyond the call; see the trace package
// for the full contract. Incompatible with the parallel executors
// (WithExecutor): parallel windows have no single global interleaving to
// observe.
func WithObserver(sink trace.Sink) Option {
	return func(s *settings) error {
		if sink == nil {
			return fmt.Errorf("abcl: WithObserver(nil): sink must be non-nil")
		}
		if s.observer != nil {
			s.observer = trace.Tee(s.observer, sink)
		} else {
			s.observer = sink
		}
		return nil
	}
}

// ProfileOptions configures the cost-attribution profiler (WithProfiler).
type ProfileOptions struct {
	// Window, when positive, additionally slices the profile into time-series
	// buckets of this width (instructions, events, packets, queue depths and
	// utilization per bucket). Zero keeps per-path totals only.
	Window Time
	// Classes enables per-class attribution: deliveries by receiver mode and
	// method-body instructions, keyed by the receiving object's class.
	Classes bool
}

// WithProfiler enables the cost-attribution profiler: every simulated
// instruction, wire record and stable-store byte is charged to a message
// path (local-dormant, local-active, restore, now-blocked, remote-send,
// remote-recv, create, forward, sched, body, ckpt, retransmit, ack — the
// paper's Section 6 taxonomy plus the subsystems added since). The report is
// available as System.Report().Profile after a run. The profiler only
// observes — enabling it changes no virtual-time results.
func WithProfiler(opt ProfileOptions) Option {
	return func(s *settings) error {
		if opt.Window < 0 {
			return fmt.Errorf("abcl: WithProfiler: window must be non-negative, got %v", opt.Window)
		}
		s.prof = &opt
		return nil
	}
}

// WithMachine overrides the full machine configuration; its node count is
// replaced by the system's. Without this option an AP1000-like default
// (25MHz, CPI 2.3, squarish torus) is used.
func WithMachine(cfg MachineConfig) Option {
	return func(s *settings) error {
		s.machine = &cfg
		return nil
	}
}

// WithChunkStock sets the chunk-stock depth per (node, class) for
// latency-hiding remote creation. Depth must be positive; use
// WithoutChunkStock to disable the stock entirely.
func WithChunkStock(depth int) Option {
	return func(s *settings) error {
		if depth <= 0 {
			return fmt.Errorf("abcl: WithChunkStock(%d): depth must be positive (use WithoutChunkStock to disable)", depth)
		}
		s.stock = depth
		return nil
	}
}

// WithoutChunkStock disables the chunk stock: every remote creation does a
// blocking round trip.
func WithoutChunkStock() Option {
	return func(s *settings) error {
		s.stock = 0
		return nil
	}
}

// WithFaults installs a deterministic fault plan on the machine's
// interconnect and enables the reliable-delivery (ack/retry) protocol in
// the inter-node layer, so all runtime traffic — past-type sends, remote
// creation, replies, migration — survives the declared faults without any
// change to method-body code. The plan is validated against the node count
// at construction. A zero plan is a no-op.
func WithFaults(plan FaultPlan) Option {
	return func(s *settings) error {
		s.faults = plan
		return nil
	}
}

// WithReliable enables the acknowledgment/retry delivery protocol even on a
// fault-free interconnect. WithFaults implies it; standalone it is useful for
// measuring the protocol's ack traffic (and the effect of WithDelayedAcks)
// without injected faults.
func WithReliable() Option {
	return func(s *settings) error {
		s.reliable = true
		return nil
	}
}

// WithBatching enables per-link packet batching on the wire path: records to
// the same destination node within the given virtual-time window coalesce
// into one hardware packet (flushed early once maxBytes of payload
// accumulate; maxBytes <= 0 selects the DefaultBatchBytes budget). The fixed
// per-packet launch latency is amortised across the coalesced records while
// per-byte and per-hop costs stay faithful. Off by default; the default
// path is byte-identical to the unbatched engine.
func WithBatching(window Time, maxBytes int) Option {
	return func(s *settings) error {
		if window <= 0 {
			return fmt.Errorf("abcl: WithBatching(%v, %d): window must be positive", window, maxBytes)
		}
		s.batchWindow = window
		s.batchBytes = maxBytes
		return nil
	}
}

// WithDelayedAcks replaces the reliable layer's per-packet acknowledgments
// with cumulative acks emitted after at most d of virtual time (and
// piggybacked for free on reverse-direction batches when WithBatching is
// also on). Requires the reliable protocol — combine with WithFaults or
// WithReliable.
func WithDelayedAcks(d Time) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("abcl: WithDelayedAcks(%v): delay must be positive", d)
		}
		s.ackDelay = d
		return nil
	}
}

// WithLoadHorizon makes load-based placement ignore piggybacked load samples
// older than d, so it stops chasing stale minima on quiet links. Zero (the
// default) keeps samples forever.
func WithLoadHorizon(d Time) Option {
	return func(s *settings) error {
		if d <= 0 {
			return fmt.Errorf("abcl: WithLoadHorizon(%v): horizon must be positive", d)
		}
		s.loadHorizon = d
		return nil
	}
}

// WithoutLocationCache disables the remote-location cache that
// short-circuits migration forwarders. The cache is on by default (and
// inert until an object migrates); disable it to reproduce strict
// every-message-through-the-forwarder semantics.
func WithoutLocationCache() Option {
	return func(s *settings) error {
		s.noLocCache = true
		return nil
	}
}

// WithCheckpoint enables the coordinated checkpoint subsystem with the given
// snapshot interval: node 0 starts a Chandy–Lamport-style marker round every
// interval of virtual time, capturing a consistent global cut (object state,
// buffered messages, saved contexts, protocol windows, in-flight records)
// against a simulated stable store. When the fault plan declares node
// crashes (NodeCrash), each restart rolls the whole machine back to the last
// complete round and resumes — with reliable delivery on (which this option
// forces), the recovered run delivers every message exactly once and
// produces the same application results as a fault-free run. A crash plan
// without WithCheckpoint recovers from an automatic baseline checkpoint
// taken before execution starts (restart-from-the-beginning). Works under
// every executor: the parallel ones fence the marker rounds and the restarts
// (a restore touches every event lane at once), firing them serially.
func WithCheckpoint(interval Time) Option {
	return func(s *settings) error {
		if interval <= 0 {
			return fmt.Errorf("abcl: WithCheckpoint(%v): interval must be positive", interval)
		}
		s.ckptEvery = interval
		return nil
	}
}

// execKind discriminates the execution strategies an ExecutorSpec can name.
type execKind int

const (
	execSequential execKind = iota
	execConservative
	execOptimistic
)

// OptimisticOptions tunes the Time Warp executor selected by Optimistic.
// The zero value is a good default for every field.
type OptimisticOptions struct {
	// Window is the initial (and floor of the maximum) speculation window
	// width in virtual time. Zero picks 16× the network lookahead. The
	// executor adapts around this starting point: rollbacks shrink the
	// window toward the conservative lookahead, clean wide commits grow it.
	Window Time

	// MaxRollbackDepth is the number of consecutive rolled-back windows
	// tolerated before the executor collapses to conservative width and
	// waits for a probe to succeed before speculating again. Zero picks 8.
	MaxRollbackDepth int

	// GVTInterval caps how far the commit horizon (the Time Warp GVT — the
	// virtual time below which no event can be rolled back) may trail a
	// single window: the adaptive window width never exceeds
	// max(Window, GVTInterval), so state is committed and snapshots are
	// released (fossil collection) at least this often. Zero leaves the
	// cap at Window. Must be zero or >= Window.
	GVTInterval Time
}

// ExecutorSpec names an execution strategy for WithExecutor. Build one with
// Sequential, Conservative or Optimistic.
type ExecutorSpec struct {
	kind    execKind
	workers int
	opt     OptimisticOptions
}

// String names the strategy for reports and manifests: "sequential",
// "conservative(8)", "optimistic(8)".
func (e ExecutorSpec) String() string {
	switch e.kind {
	case execConservative:
		return fmt.Sprintf("conservative(%d)", e.workers)
	case execOptimistic:
		return fmt.Sprintf("optimistic(%d)", e.workers)
	default:
		return "sequential"
	}
}

// Sequential selects the default single-threaded event engine: one global
// event order, compatible with every other option.
func Sequential() ExecutorSpec { return ExecutorSpec{kind: execSequential} }

// Conservative selects the conservative parallel executor with the given
// worker count: node event lanes whose next events fall inside one
// minimum-wire-latency lookahead window fire concurrently, then the engine
// barriers and advances. It is the zero-speculation preset of the window
// driver Optimistic uses — a speculation ceiling equal to the lookahead —
// so it takes no snapshots, never rolls back, and keeps packet, frame and
// wire-record pooling on. Results are identical to the sequential engine
// (same final state, same statistics); only wall-clock time differs.
// workers <= 1 selects the sequential engine.
func Conservative(workers int) ExecutorSpec {
	return ExecutorSpec{kind: execConservative, workers: workers}
}

// Optimistic selects the optimistic (Time Warp) parallel executor: lanes
// speculate past the conservative lookahead horizon inside adaptive windows,
// snapshotting their state at the horizon; a cross-lane message into
// another lane's speculated past rolls the window back (restoring state,
// revoking the speculative events — the sender-side form of anti-messages)
// and the window re-commits conservatively. Results are byte-identical to
// the sequential engine, including statistics, multiactive scheduling
// decisions, fault injections and checkpoint rounds; only wall-clock time
// differs. workers <= 1 selects the sequential engine.
//
// Compared to Conservative, Optimistic wins when the conservative lookahead
// is small relative to event spacing (wide-area or congested topologies)
// and cross-lane conflicts are rare; it loses on tightly-coupled all-to-all
// traffic at small scale, where most windows abort.
func Optimistic(workers int, opt OptimisticOptions) ExecutorSpec {
	return ExecutorSpec{kind: execOptimistic, workers: workers, opt: opt}
}

// WithExecutor picks the execution strategy (default Sequential). The
// parallel executors are incompatible with WithObserver — the trace
// contract is a single global interleaving that parallel windows do not
// have — and WithProfiler requires Sequential or Conservative.
func WithExecutor(e ExecutorSpec) Option {
	return func(s *settings) error {
		if e.workers < 0 {
			return fmt.Errorf("abcl: WithExecutor: worker count %d must be non-negative", e.workers)
		}
		if e.opt.Window < 0 {
			return fmt.Errorf("abcl: WithExecutor: OptimisticOptions.Window %v must be non-negative", e.opt.Window)
		}
		if e.opt.MaxRollbackDepth < 0 {
			return fmt.Errorf("abcl: WithExecutor: OptimisticOptions.MaxRollbackDepth %d must be non-negative", e.opt.MaxRollbackDepth)
		}
		if e.opt.GVTInterval < 0 {
			return fmt.Errorf("abcl: WithExecutor: OptimisticOptions.GVTInterval %v must be non-negative", e.opt.GVTInterval)
		}
		if e.opt.GVTInterval > 0 && e.opt.GVTInterval < e.opt.Window {
			return fmt.Errorf("abcl: WithExecutor: OptimisticOptions.GVTInterval %v must be zero or >= Window %v", e.opt.GVTInterval, e.opt.Window)
		}
		s.exec = e
		return nil
	}
}

// System is a complete simulated multicomputer running the ABCL runtime.
type System struct {
	M   *machine.Machine
	RT  *core.Runtime
	Net *remote.Layer

	seed        int64
	faults      FaultPlan
	exec        ExecutorSpec
	inj         *fault.Injector     // nil unless faults are enabled
	prof        *profile.Profiler   // nil unless WithProfiler
	ckpt        *checkpoint.Manager // nil unless checkpointing is active
	ckptStarted bool
}

// NewSystem builds a System from functional options:
//
//	sys, err := abcl.NewSystem(
//	    abcl.WithNodes(16),
//	    abcl.WithSeed(7),
//	    abcl.WithFaults(abcl.UniformFaults(0.1, 0.05, 0)),
//	)
//
// Every omitted option selects the AP1000-flavoured default.
//
// Validation is aggregated: every option is applied (later options still
// override earlier ones) and every complaint — bad individual arguments and
// incompatible combinations alike — is collected and returned as one joined
// error, so a misconfigured call reports all of its problems at once.
func NewSystem(opts ...Option) (*System, error) {
	s := settings{
		nodes:     1,
		policy:    StackBased,
		stock:     DefaultStockDepth,
		placement: remote.RoundRobin{},
		seed:      DefaultSeed,
	}
	var errs []error
	for i, opt := range opts {
		if opt == nil {
			errs = append(errs, fmt.Errorf("abcl: option %d is nil", i))
			continue
		}
		if err := opt(&s); err != nil {
			errs = append(errs, err)
		}
	}
	// Cross-option validation, all up front. Checkpointing is active when
	// asked for explicitly or implied by a crash plan (recovery needs at
	// least the baseline checkpoint); it forces reliable delivery, because
	// snapshot markers and post-restore replay ride the ack/retry protocol's
	// per-link sequence space.
	ckptOn := s.ckptEvery > 0 || len(s.faults.Crashes) > 0
	reliable := s.reliable || s.faults.Enabled() || ckptOn
	parallel := s.exec.workers > 1 && s.exec.kind != execSequential
	optimistic := s.exec.kind == execOptimistic && s.exec.workers > 1
	if s.observer != nil && parallel {
		errs = append(errs, fmt.Errorf("abcl: WithObserver and a parallel executor (WithExecutor) are incompatible: observers see a single global event interleaving"))
	}
	if s.prof != nil && optimistic {
		errs = append(errs, fmt.Errorf("abcl: WithProfiler and the Optimistic executor are incompatible: profile accumulators are monotonic and cannot be rolled back"))
	}
	if s.ackDelay > 0 && !reliable {
		errs = append(errs, fmt.Errorf("abcl: WithDelayedAcks requires the reliable protocol (combine with WithFaults or WithReliable)"))
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	mcfg := machine.DefaultConfig(s.nodes)
	if s.machine != nil {
		mcfg = *s.machine
		mcfg.Nodes = s.nodes
	}
	m, err := machine.New(mcfg)
	if err != nil {
		return nil, fmt.Errorf("abcl: %w", err)
	}
	var prof *profile.Profiler
	if s.prof != nil {
		prof = profile.New(s.nodes, profile.Options{
			Window:  s.prof.Window,
			Classes: s.prof.Classes,
			InstrNs: mcfg.NsPerInstr(),
		})
	}
	var inj *fault.Injector
	if s.faults.Enabled() {
		inj, err = fault.NewInjector(s.faults, s.seed, s.nodes)
		if err != nil {
			return nil, fmt.Errorf("abcl: %w", err)
		}
		m.SetFaults(inj)
	}
	rt := core.NewRuntime(m, core.Options{
		Policy:        s.policy,
		MaxStackDepth: s.maxStack,
		Trace:         s.observer,
		Prof:          prof,
	})
	if ckptOn || optimistic {
		// Object tracking must be on before anything — bootstrap objects,
		// stocked chunks, reply destinations — is created. The optimistic
		// executor needs it for the same reason checkpointing does: lane
		// rollback restores nodes through the snapshot machinery.
		rt.EnableSnapshots()
	}
	if optimistic {
		rt.SetOptimistic()
		m.SetOptimistic()
		if inj != nil {
			inj.SetOptimistic()
		}
	}
	net := remote.Attach(rt, remote.Options{
		StockDepth:      s.stock,
		Placement:       s.placement,
		Seed:            s.seed,
		Reliable:        reliable,
		Trace:           s.observer,
		Prof:            prof,
		BatchWindow:     s.batchWindow,
		BatchMaxBytes:   s.batchBytes,
		AckDelay:        s.ackDelay,
		LoadHorizon:     s.loadHorizon,
		NoLocationCache: s.noLocCache,
	})
	if optimistic {
		// After Attach: the reliable-protocol senders must exist so their
		// record pooling can be switched off.
		net.EnableOptimistic()
	}
	sys := &System{M: m, RT: rt, Net: net, prof: prof, seed: s.seed, faults: s.faults, exec: s.exec, inj: inj}
	if ckptOn {
		// Retention must cover every reliable send, including host-time ones
		// (e.g. a Migrate before the first Run), so it starts here rather
		// than at the manager's Start.
		net.EnableCheckpoint()
		sys.ckpt = checkpoint.New(rt, net, s.ckptEvery, nil)
		if s.observer != nil {
			sys.ckpt.SetTrace(s.observer)
		}
		if prof != nil {
			sys.ckpt.SetProfiler(prof)
		}
	}
	return sys, nil
}

// MustNewSystem is NewSystem for known-good configurations.
func MustNewSystem(opts ...Option) *System {
	s, err := NewSystem(opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Pattern registers (or looks up) a message pattern.
func (s *System) Pattern(name string, arity int) Pattern {
	return s.RT.Reg.Register(name, arity)
}

// Class defines a new object class with stateSize state variables and an
// optional lazy initializer.
func (s *System) Class(name string, stateSize int, init InitFunc) *Class {
	return s.RT.DefineClass(name, stateSize, init)
}

// NewClass is the builder entry point for class definition: it returns the
// fresh class for chaining Method, Group, Priority and ReorderBound calls.
//
//	counter := sys.NewClass("counter", 1, nil).
//	    Method(get, getBody).
//	    Method(add, addBody).
//	    Group("reads", get).
//	    Group("writes", add).
//	    Priority("writes", 1)
//
// Declaring any compatibility group makes the class multiactive: invocations
// whose patterns share a group may be live on one object simultaneously
// (running, or blocked in a now-type wait), while ungrouped patterns stay
// exclusive with everything. A class with no groups keeps the paper's serial
// semantics exactly. NewClass and Class are the same definition under two
// idioms; both return the chainable *Class.
func (s *System) NewClass(name string, stateSize int, init InitFunc) *Class {
	return s.RT.DefineClass(name, stateSize, init)
}

// NewObjectOn creates an object on a node from the host side (bootstrap).
func (s *System) NewObjectOn(node int, cl *Class, ctorArgs ...Value) Address {
	return s.RT.NewObjectOn(node, cl, ctorArgs...)
}

// Send injects a message from the host side. The message is buffered and
// scheduled on the target's node.
func (s *System) Send(to Address, p Pattern, args ...Value) {
	s.RT.Inject(to, p, args...)
}

// startCkpt lazily starts the checkpoint subsystem: the baseline round-0
// snapshot must be taken after the application's setup (bootstrap objects
// created, initial messages injected) but before the machine runs, so it
// happens on the first Run/Snapshot/Restore rather than in NewSystem.
func (s *System) startCkpt() {
	if s.ckpt == nil || s.ckptStarted {
		return
	}
	s.ckptStarted = true
	s.ckpt.Start(s.faults.Crashes)
}

// Run freezes the system (fixing patterns and building all virtual function
// tables) and executes until quiescence — on the executor WithExecutor
// selected, sequentially by default. When checkpointing is active the
// baseline checkpoint, periodic snapshot rounds and any declared
// crash/restart events are installed before the first event fires.
func (s *System) Run() error {
	s.startCkpt()
	if s.exec.workers > 1 && s.exec.kind != execSequential {
		return s.runParallel()
	}
	return s.RT.Run()
}

// runParallel drives the machine under the engine's window driver. Both
// parallel executors get the same fences: lane 0 (the host lane, which owns
// no node state and runs crash restarts) is permanently fenced, and when the
// checkpoint subsystem is active its marker rounds are fenced too — the
// next scheduled tick bounds every window, and an in-flight round forces
// serial stepping until the cut completes. Conservative pins the
// speculation ceiling to the lookahead, so it needs no lane saver;
// Optimistic speculates and rolls lanes back through timeWarpSaver.
func (s *System) runParallel() error {
	s.RT.Freeze()
	cfg := sim.OptimisticConfig{
		Window:     s.M.Lookahead(),
		FenceLanes: []int{0},
	}
	if s.exec.kind == execOptimistic {
		cfg.Window = s.exec.opt.Window
		cfg.MaxRollbackDepth = s.exec.opt.MaxRollbackDepth
		cfg.GVTInterval = s.exec.opt.GVTInterval
		cfg.Saver = &timeWarpSaver{rt: s.RT, m: s.M, net: s.Net, inj: s.inj}
	}
	if g := s.ckpt; g != nil {
		cfg.Fence = func() sim.Time {
			// The engine ignores negative fences; a pending tick at virtual
			// time 0 cannot happen (intervals are positive).
			if t := g.NextTick(); t > 0 {
				return t
			}
			return -1
		}
		cfg.SerialNow = g.RoundInFlight
	}
	return s.M.OptimisticRun(s.exec.workers, cfg)
}

// timeWarpSaver is the composite sim.LaneSaver of the Optimistic executor:
// it snapshots and restores everything outside the engine that a node's
// lane mutates — machine state (clock, receive queue, FIFO clamp column,
// counters), language state (objects, queues, saved contexts, scheduling
// queue), inter-node state (stocks, protocol cursors, in-flight records,
// open batches, retention) and fault state (tallies, rng streams).
//
// Lane l drives node l-1; lane 0 is the host lane, which owns no node state
// and is fenced serial by the driver anyway, so its capture is nil.
type timeWarpSaver struct {
	rt  *core.Runtime
	m   *machine.Machine
	net *remote.Layer
	inj *fault.Injector // nil on a fault-free machine
}

// twSnap is one lane's composite snapshot.
type twSnap struct {
	mach *machine.NodeSnap
	core *core.NodeSnap
	rem  *remote.NodeSnap
	flt  *fault.NodeSnap
}

// Capture implements sim.LaneSaver; it runs on the worker goroutine that
// owns the lane, between two of its events.
func (w *timeWarpSaver) Capture(lane int) any {
	if lane == 0 {
		return nil
	}
	node := lane - 1
	s := &twSnap{
		mach: w.m.Node(node).OptCapture(),
		core: w.rt.OptCaptureNode(node),
		rem:  w.net.OptCaptureNode(node),
	}
	if w.inj != nil {
		s.flt = w.inj.OptCaptureNode(node)
	}
	return s
}

// Restore implements sim.LaneSaver; it runs single-threaded at the window
// barrier.
func (w *timeWarpSaver) Restore(lane int, snap any) {
	if snap == nil {
		return
	}
	node := lane - 1
	s := snap.(*twSnap)
	w.m.Node(node).OptRestore(s.mach)
	w.rt.OptRestoreNode(node, s.core)
	w.net.OptRestoreNode(node, s.rem)
	if s.flt != nil {
		w.inj.OptRestoreNode(node, s.flt)
	}
}

// OptStats reports the parallel window driver's deterministic run
// statistics (windows, speculative windows, rollbacks, serial steps). All
// zeros for sequential runs; Speculative and Rollbacks are always zero under
// Conservative.
func (s *System) OptStats() sim.OptStats { return s.M.OptStats() }

// SyncWindows reports how many parallel windows — one cross-lane
// synchronization barrier each — the run executed: lookahead-width windows
// under Conservative(n), adaptive windows under Optimistic(n). The count
// is deterministic (it depends only on virtual time, never on the worker
// schedule) and is the machine-independent scaling signal: fewer, wider
// windows mean less barrier synchronization per event. Zero for
// sequential runs.
func (s *System) SyncWindows() uint64 { return s.M.OptStats().Windows }

// Checkpointing returns the checkpoint manager, or nil when neither
// WithCheckpoint nor a crash plan was configured.
func (s *System) Checkpointing() *checkpoint.Manager { return s.ckpt }

// RegisterSnapshotter installs a per-class checkpoint codec; classes without
// one are captured by the default plain copy of their state box. Requires
// checkpointing (WithCheckpoint or a crash plan).
func (s *System) RegisterSnapshotter(cl *Class, sn Snapshotter) error {
	if s.ckpt == nil {
		return fmt.Errorf("abcl: RegisterSnapshotter requires WithCheckpoint or a crash plan")
	}
	s.ckpt.Registry().Register(cl, sn)
	return nil
}

// Snapshot captures a consistent global checkpoint of the current machine
// state and makes it the restore target. The system must be quiescent
// (before the first Run or after a Run returned); mid-run snapshots are the
// periodic marker rounds' job. Requires checkpointing.
func (s *System) Snapshot() (*Snapshot, error) {
	if s.ckpt == nil {
		return nil, fmt.Errorf("abcl: Snapshot requires WithCheckpoint or a crash plan")
	}
	s.startCkpt()
	return s.ckpt.Snapshot(), nil
}

// Restore rolls the whole machine back to the last stable checkpoint (the
// most recent of: the baseline, a completed periodic round, an explicit
// Snapshot). The system must be quiescent; the next Run resumes execution
// from the restored state, replaying the cut's in-flight messages. Requires
// checkpointing.
func (s *System) Restore() error {
	if s.ckpt == nil {
		return fmt.Errorf("abcl: Restore requires WithCheckpoint or a crash plan")
	}
	s.startCkpt()
	if s.ckpt.Stable() == nil {
		return fmt.Errorf("abcl: Restore without a checkpoint")
	}
	s.ckpt.Restore()
	return nil
}

// Migrate moves a quiescent object to another node (a category-4 service):
// its state travels in a packet and a forwarder is installed at the old
// address, so existing references keep working one hop slower. The transfer
// happens in simulated time; run the system (or continue running it) for
// the move to complete. onDone, if non-nil, observes the new address.
func (s *System) Migrate(obj Address, target int, onDone func(Address)) error {
	s.RT.Freeze()
	return s.Net.Migrate(obj.Obj, target, onDone)
}

// Nodes returns the node count.
func (s *System) Nodes() int { return s.M.Nodes() }

// Seed returns the seed actually in use for placement and fault injection
// (DefaultSeed when none was configured).
func (s *System) Seed() int64 { return s.seed }

// Faults returns the configured fault plan; the zero plan means a
// fault-free interconnect.
func (s *System) Faults() FaultPlan { return s.faults }

// Report is the grouped introspection snapshot of a System, replacing the
// flat accessor zoo. Take one after Run (or between Runs); it is a copy and
// does not track subsequent execution.
type Report struct {
	Sched    SchedReport
	Wire     WireReport
	Reliable ReliableReport
	Ckpt     CkptReport
	// Profile is the cost-attribution report; nil unless WithProfiler.
	Profile *ProfileReport
}

// SchedReport covers the intra-node runtime: virtual time, utilization and
// the aggregated scheduling counters.
type SchedReport struct {
	// Nodes is the processor count.
	Nodes int
	// Elapsed is the parallel makespan: the largest node clock.
	Elapsed Time
	// Utilization is busy time over (makespan x nodes).
	Utilization float64
	// TotalInstructions is the instruction count summed over nodes.
	TotalInstructions uint64
	// Counters aggregates the runtime event counters over all nodes.
	Counters Counters
}

// WireReport covers the interconnect: packet/message/byte totals and the
// wire-path optimisations in effect.
type WireReport struct {
	// Packets is the count of physical packet launches; with batching one
	// packet may carry several logical messages.
	Packets uint64
	// LogicalMsgs is the count of logical messages launched onto the wire.
	// The ratio LogicalMsgs/Packets is the mean aggregation factor.
	LogicalMsgs uint64
	// Bytes is the total payload transmitted.
	Bytes uint64
	// BatchWindow and BatchMaxBytes echo the WithBatching configuration
	// (zeroes when batching is off).
	BatchWindow   Time
	BatchMaxBytes int
	// LocationCache reports whether the post-migration location cache is on.
	LocationCache bool
}

// ReliableReport covers the acknowledgment/retry delivery protocol.
type ReliableReport struct {
	// Enabled reports whether the ack/retry protocol is active.
	Enabled bool
	// AckDelay is the delayed-ack interval (zero when acks are immediate).
	AckDelay Time
}

// CkptReport covers the coordinated checkpoint subsystem.
type CkptReport struct {
	// Enabled reports whether checkpointing is active.
	Enabled bool
	// Rounds is the number of completed checkpoint rounds (including the
	// baseline).
	Rounds int
}

// Report assembles the grouped introspection snapshot: scheduling, wire,
// reliable-protocol and checkpoint sections, plus the cost-attribution
// profile when WithProfiler was given.
func (s *System) Report() Report {
	bw, bb := s.Net.Batching()
	r := Report{
		Sched: SchedReport{
			Nodes:             s.M.Nodes(),
			Elapsed:           s.M.MaxClock(),
			Utilization:       s.M.Utilization(),
			TotalInstructions: s.M.TotalInstr(),
			Counters:          s.RT.TotalStats(),
		},
		Wire: WireReport{
			Packets:       s.M.TotalPackets(),
			LogicalMsgs:   s.M.TotalMsgs(),
			Bytes:         s.M.TotalBytes(),
			BatchWindow:   bw,
			BatchMaxBytes: bb,
			LocationCache: s.Net.LocationCache(),
		},
		Reliable: ReliableReport{
			Enabled:  s.Net.Reliable(),
			AckDelay: s.Net.AckDelay(),
		},
		Ckpt: CkptReport{
			Enabled: s.ckpt != nil,
		},
	}
	if s.ckpt != nil {
		r.Ckpt.Rounds = s.ckpt.Rounds()
	}
	if s.prof != nil {
		r.Profile = s.prof.Report()
	}
	return r
}

// InstrTime converts an instruction count to virtual time under the
// system's clock and CPI configuration.
func (s *System) InstrTime(instr int) Time { return s.M.Cfg.InstrTime(instr) }
