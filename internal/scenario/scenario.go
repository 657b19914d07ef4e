// Package scenario executes declarative fault-injection scenarios: a JSON
// spec names a workload, a fleet size, a fault schedule (link drop /
// duplication / jitter rules, node pause windows and node crashes that
// recover from coordinated checkpoints) and assertions. The
// runner executes the workload twice with the same seed — once on a
// fault-free machine, once under the declared faults — and checks that the
// faulted run reaches quiescence, computes the same answer, loses no
// messages, and satisfies the spec's extra assertions.
//
// The format is intentionally small and declarative (compare the fleet /
// events / assertions scenario files of distributed-system simulators):
// everything a scenario can express is reproducible from (spec, seed)
// alone.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"

	abcl "repro"
	"repro/internal/apps/diffusion"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Link is one link-fault rule. Src/Dst -1 — the default when omitted —
// matches any node; the first matching rule wins.
type Link struct {
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Drop   float64 `json:"drop,omitempty"`
	Dup    float64 `json:"dup,omitempty"`
	Jitter int64   `json:"jitter_ns,omitempty"`
}

// UnmarshalJSON defaults omitted src/dst to the wildcard.
func (l *Link) UnmarshalJSON(data []byte) error {
	type raw Link
	r := raw{Src: abcl.Wildcard, Dst: abcl.Wildcard}
	if err := json.Unmarshal(data, &r); err != nil {
		return err
	}
	*l = Link(r)
	return nil
}

// Pause suspends one node's processor for a virtual-time window.
type Pause struct {
	Node int   `json:"node"`
	At   int64 `json:"at_ns"`
	For  int64 `json:"for_ns"`
}

// Crash kills one node at a virtual time; the machine rolls back to the
// latest coordinated checkpoint when the node restarts RestartAfter later.
type Crash struct {
	Node         int   `json:"node"`
	At           int64 `json:"at_ns"`
	RestartAfter int64 `json:"restart_after_ns"`
}

// Faults is the declarative fault schedule of a scenario.
type Faults struct {
	Links   []Link  `json:"links,omitempty"`
	Pauses  []Pause `json:"pauses,omitempty"`
	Crashes []Crash `json:"crashes,omitempty"`
}

// Plan translates the schedule into a FaultPlan.
func (f Faults) Plan() abcl.FaultPlan {
	var p abcl.FaultPlan
	for _, l := range f.Links {
		p.Links = append(p.Links, abcl.LinkFault{
			Src: l.Src, Dst: l.Dst,
			Drop: l.Drop, Dup: l.Dup, Jitter: sim.Time(l.Jitter),
		})
	}
	for _, pa := range f.Pauses {
		p.Pauses = append(p.Pauses, abcl.NodePause{
			Node: pa.Node, At: sim.Time(pa.At), For: sim.Time(pa.For),
		})
	}
	for _, c := range f.Crashes {
		p.Crashes = append(p.Crashes, abcl.NodeCrash{
			Node: c.Node, At: sim.Time(c.At), RestartAfter: sim.Time(c.RestartAfter),
		})
	}
	return p
}

// Assert lists the optional assertions of a scenario. Quiescence, an
// answer identical to the fault-free baseline, zero lost messages and zero
// abandoned messages are always checked — they are the point of the
// reliable-delivery subsystem, not an option.
type Assert struct {
	// MinRetries requires at least this many retransmissions (proof the
	// faults actually bit).
	MinRetries uint64 `json:"min_retries,omitempty"`
	// MinDrops requires at least this many injected link drops.
	MinDrops uint64 `json:"min_drops,omitempty"`
	// MinDupSuppressed requires at least this many suppressed duplicates.
	MinDupSuppressed uint64 `json:"min_dup_suppressed,omitempty"`
	// MinPauses requires at least this many node-pause activations.
	MinPauses uint64 `json:"min_pauses,omitempty"`
	// MaxSlowdown bounds faulted elapsed time as a multiple of the
	// baseline's (0 = unchecked).
	MaxSlowdown float64 `json:"max_slowdown,omitempty"`
	// MinRestarts requires at least this many crash restarts (proof the
	// declared crashes fired before the workload finished).
	MinRestarts uint64 `json:"min_restarts,omitempty"`
	// MinCkptRounds requires at least this many completed coordinated
	// checkpoint rounds in the faulted run.
	MinCkptRounds uint64 `json:"min_ckpt_rounds,omitempty"`
}

// Spec is one declarative scenario.
type Spec struct {
	Name     string `json:"name"`
	Workload string `json:"workload"` // nqueens | forkjoin | diffusion | hotkey
	Nodes    int    `json:"nodes"`
	Seed     int64  `json:"seed,omitempty"`

	// Workload parameters (each workload reads its own).
	N        int    `json:"n,omitempty"`        // nqueens board size
	Depth    int    `json:"depth,omitempty"`    // forkjoin tree depth
	Grid     int    `json:"grid,omitempty"`     // diffusion grid edge
	Iters    int    `json:"iters,omitempty"`    // diffusion iterations
	Clients  int    `json:"clients,omitempty"`  // hotkey client objects
	Ops      int    `json:"ops,omitempty"`      // hotkey operations per client
	Coverage string `json:"coverage,omitempty"` // hotkey annotation coverage: none|partial|full

	// Wire-path options, applied to the baseline and the faulted run alike
	// so the two runs stay comparable. A positive AckDelayNs forces the
	// reliable protocol on in the (fault-free) baseline too, since delayed
	// acks only exist inside it.
	BatchWindowNs int64 `json:"batch_window_ns,omitempty"`
	AckDelayNs    int64 `json:"ack_delay_ns,omitempty"`

	// CheckpointIntervalNs, when positive, enables periodic coordinated
	// checkpoints. Like the wire-path options it applies to the baseline
	// too, so both runs pay the same snapshot cost and the crash-recovery
	// claim — same answer as a fault-free run of the same configuration —
	// is exactly what the answer check verifies.
	CheckpointIntervalNs int64 `json:"checkpoint_interval_ns,omitempty"`

	// ProfileWindowNs, when positive, attaches the cost-attribution
	// profiler with this time-series window to both runs. The profiler
	// only observes (it never perturbs the schedule), so the answer and
	// ledger checks are unaffected; the faulted run's per-path and
	// per-slice "where did the time go" digest is appended to the report.
	ProfileWindowNs int64 `json:"profile_window_ns,omitempty"`

	// Executor selects the execution engine for both runs: "" or
	// "sequential" (the default), "conservative" or "optimistic" with
	// Workers lanes. Parallel engines forbid observers, so a spec that
	// names one cannot be packed (runpack traces are captured
	// sequentially). OptimisticWindowNs overrides the Time Warp
	// speculation window (0 = adaptive default).
	Executor           string `json:"executor,omitempty"`
	Workers            int    `json:"workers,omitempty"`
	OptimisticWindowNs int64  `json:"optimistic_window_ns,omitempty"`

	Faults Faults `json:"faults"`
	Assert Assert `json:"assert"`
}

// ParallelConfigured reports whether the spec names a parallel execution
// engine (which forbids observers, and therefore packing).
func (sp Spec) ParallelConfigured() bool {
	return (sp.Executor == "conservative" || sp.Executor == "optimistic") && sp.Workers > 1
}

// executorOption translates the spec's executor knob into a System
// option; ok is false for sequential specs.
func (sp Spec) executorOption() (abcl.Option, bool) {
	if !sp.ParallelConfigured() {
		return nil, false
	}
	if sp.Executor == "optimistic" {
		return abcl.WithExecutor(abcl.Optimistic(sp.Workers, abcl.OptimisticOptions{
			Window: sim.Time(sp.OptimisticWindowNs),
		})), true
	}
	return abcl.WithExecutor(abcl.Conservative(sp.Workers)), true
}

// Validate rejects malformed specs before anything runs. Like NewSystem's
// option validation, every complaint — missing fields, unknown workloads,
// bad fault schedules — is collected and returned as one joined error, so a
// broken spec reports all of its problems at once.
func (sp Spec) Validate() error {
	var errs []error
	name := sp.Name
	if name == "" {
		name = "(unnamed)"
		errs = append(errs, fmt.Errorf("scenario: missing name"))
	}
	if sp.Nodes < 1 {
		errs = append(errs, fmt.Errorf("scenario %s: nodes must be >= 1", name))
	}
	switch sp.Workload {
	case "nqueens", "forkjoin", "diffusion":
	case "hotkey":
		if sp.Nodes < 2 {
			errs = append(errs, fmt.Errorf("scenario %s: hotkey needs >= 2 nodes", name))
		}
		if sp.Coverage != "" {
			if _, err := hotkey.ParseCoverage(sp.Coverage); err != nil {
				errs = append(errs, fmt.Errorf("scenario %s: %w", name, err))
			}
		}
	default:
		errs = append(errs, fmt.Errorf("scenario %s: unknown workload %q", name, sp.Workload))
	}
	switch sp.Executor {
	case "", "sequential", "conservative", "optimistic":
	default:
		errs = append(errs, fmt.Errorf("scenario %s: unknown executor %q", name, sp.Executor))
	}
	if sp.Workers > 1 && (sp.Executor == "" || sp.Executor == "sequential") {
		errs = append(errs, fmt.Errorf("scenario %s: workers requires a parallel executor", name))
	}
	if sp.OptimisticWindowNs != 0 && sp.Executor != "optimistic" {
		errs = append(errs, fmt.Errorf("scenario %s: optimistic_window_ns requires the optimistic executor", name))
	}
	// The fault schedule is only checkable against a sane fleet size; with
	// nodes < 1 every rule would drown in out-of-range noise.
	if sp.Nodes >= 1 {
		if err := sp.Faults.Plan().Validate(sp.Nodes); err != nil {
			errs = append(errs, fmt.Errorf("scenario %s: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

// RunResult is one execution of the scenario's workload.
type RunResult struct {
	Answer  string // canonical workload answer, comparable across runs
	Elapsed sim.Time
	Packets uint64
	Stats   stats.Counters
	Profile *abcl.ProfileReport // set when the spec asked for profiling
}

// Outcome reports a full scenario execution: the fault-free baseline, the
// faulted run, and any assertion violations (empty = pass).
type Outcome struct {
	Spec       Spec
	Baseline   RunResult
	Faulted    RunResult
	Violations []string
}

// OK reports whether every assertion held.
func (o Outcome) OK() bool { return len(o.Violations) == 0 }

// RunOpts carries cross-cutting instrumentation for a scenario execution;
// the zero value runs the scenario bare. The runpack subsystem uses it to
// capture a replayable event trace of a whole scenario.
type RunOpts struct {
	// Observer, when non-nil, receives every runtime event of the baseline
	// run followed by every event of the faulted run (the two systems
	// execute strictly in that order).
	Observer trace.Sink
	// Profile, when non-nil, attaches the cost-attribution profiler to both
	// runs, overriding the spec's ProfileWindowNs.
	Profile *abcl.ProfileOptions
}

// Run executes the scenario: baseline first, then the faulted run, then the
// assertions. The error return is for infrastructure failures (bad spec,
// workload error); assertion failures land in Outcome.Violations.
func Run(sp Spec) (Outcome, error) { return RunWith(sp, RunOpts{}) }

// RunWith is Run with instrumentation attached to both executions.
func RunWith(sp Spec, ro RunOpts) (Outcome, error) {
	if err := sp.Validate(); err != nil {
		return Outcome{}, err
	}
	base, err := runWorkload(sp, abcl.FaultPlan{}, ro)
	if err != nil {
		return Outcome{}, fmt.Errorf("scenario %s: baseline: %w", sp.Name, err)
	}
	faulted, err := runWorkload(sp, sp.Faults.Plan(), ro)
	if err != nil {
		return Outcome{}, fmt.Errorf("scenario %s: faulted: %w", sp.Name, err)
	}
	o := Outcome{Spec: sp, Baseline: base, Faulted: faulted}
	o.check()
	return o, nil
}

func (o *Outcome) check() {
	sp := o.Spec
	c := o.Faulted.Stats
	fail := func(format string, args ...any) {
		o.Violations = append(o.Violations, fmt.Sprintf(format, args...))
	}
	if o.Faulted.Answer != o.Baseline.Answer {
		fail("answer diverged under faults: %s != %s (baseline)", o.Faulted.Answer, o.Baseline.Answer)
	}
	// The sent/delivered ledger is only meaningful without crashes: counters
	// are monotonic across a rollback, so a send the restore truncated (sent
	// once, re-sent and delivered once after the rollback) leaves the ledger
	// permanently off by one. Under crashes the delivery guarantee is carried
	// by the answer check plus the abandoned count instead.
	if len(sp.Faults.Crashes) == 0 {
		if lost := c.LostMessages(); lost != 0 {
			fail("%d messages lost", lost)
		}
	}
	if c.RelAbandoned != 0 {
		fail("%d messages abandoned after max retries", c.RelAbandoned)
	}
	if c.Retransmits < sp.Assert.MinRetries {
		fail("retransmits = %d, want >= %d", c.Retransmits, sp.Assert.MinRetries)
	}
	if c.LinkDrops < sp.Assert.MinDrops {
		fail("link drops = %d, want >= %d", c.LinkDrops, sp.Assert.MinDrops)
	}
	if c.DupSuppressed < sp.Assert.MinDupSuppressed {
		fail("dup-suppressed = %d, want >= %d", c.DupSuppressed, sp.Assert.MinDupSuppressed)
	}
	if c.NodePauses < sp.Assert.MinPauses {
		fail("node pauses = %d, want >= %d", c.NodePauses, sp.Assert.MinPauses)
	}
	if m := sp.Assert.MaxSlowdown; m > 0 && o.Baseline.Elapsed > 0 {
		slow := float64(o.Faulted.Elapsed) / float64(o.Baseline.Elapsed)
		if slow > m {
			fail("slowdown %.2fx exceeds limit %.2fx", slow, m)
		}
	}
	if c.NodeRestarts < sp.Assert.MinRestarts {
		fail("node restarts = %d, want >= %d", c.NodeRestarts, sp.Assert.MinRestarts)
	}
	if c.CkptRounds < sp.Assert.MinCkptRounds {
		fail("checkpoint rounds = %d, want >= %d", c.CkptRounds, sp.Assert.MinCkptRounds)
	}
	// Every declared crash must have restarted by quiescence — a crash whose
	// outage outlives the workload would silently weaken the recovery claim.
	if want := uint64(len(sp.Faults.Crashes)); c.NodeRestarts < want {
		fail("node restarts = %d, want %d (one per declared crash)", c.NodeRestarts, want)
	}
}

// runWorkload executes the spec's workload once under the given plan.
func runWorkload(sp Spec, plan abcl.FaultPlan, ro RunOpts) (RunResult, error) {
	seed := sp.Seed
	if seed == 0 {
		seed = abcl.DefaultSeed
	}
	batch := sim.Time(sp.BatchWindowNs)
	ackDelay := sim.Time(sp.AckDelayNs)
	ckpt := sim.Time(sp.CheckpointIntervalNs)
	prof := ro.Profile
	if prof == nil && sp.ProfileWindowNs > 0 {
		prof = &abcl.ProfileOptions{Window: sim.Time(sp.ProfileWindowNs)}
	}
	var extra []abcl.Option
	if ro.Observer != nil {
		extra = append(extra, abcl.WithObserver(ro.Observer))
	}
	if opt, ok := sp.executorOption(); ok {
		extra = append(extra, opt)
	}
	switch sp.Workload {
	case "nqueens":
		n := sp.N
		if n == 0 {
			n = 6
		}
		res, err := nqueens.Run(nqueens.Options{
			N: n, Nodes: sp.Nodes, Seed: seed, Faults: plan,
			Placement:   abcl.PlaceRoundRobin, // deterministic across runs
			BatchWindow: batch, AckDelay: ackDelay, Reliable: ackDelay > 0,
			CheckpointInterval: ckpt,
			Profile:            prof,
			Extra:              extra,
		})
		if err != nil {
			return RunResult{}, err
		}
		return RunResult{
			Answer:  fmt.Sprintf("solutions=%d", res.Solutions),
			Elapsed: res.Elapsed,
			Stats:   res.Stats,
			Profile: res.Report.Profile,
		}, nil
	case "forkjoin":
		depth := sp.Depth
		if depth == 0 {
			depth = 6
		}
		opts := []abcl.Option{abcl.WithNodes(sp.Nodes), abcl.WithSeed(seed), abcl.WithFaults(plan)}
		if batch > 0 {
			opts = append(opts, abcl.WithBatching(batch, 0))
		}
		if ackDelay > 0 {
			opts = append(opts, abcl.WithReliable(), abcl.WithDelayedAcks(ackDelay))
		}
		if ckpt > 0 {
			opts = append(opts, abcl.WithCheckpoint(ckpt))
		}
		if prof != nil {
			opts = append(opts, abcl.WithProfiler(*prof))
		}
		opts = append(opts, extra...)
		sys, err := abcl.NewSystem(opts...)
		if err != nil {
			return RunResult{}, err
		}
		leaves, err := misc.RunForkJoinOn(sys, depth)
		if err != nil {
			return RunResult{}, err
		}
		rep := sys.Report()
		return RunResult{
			Answer:  fmt.Sprintf("leaves=%d", leaves),
			Elapsed: rep.Sched.Elapsed,
			Packets: rep.Wire.Packets,
			Stats:   rep.Sched.Counters,
			Profile: rep.Profile,
		}, nil
	case "hotkey":
		clients, ops := sp.Clients, sp.Ops
		if clients == 0 {
			clients = 8
		}
		if ops == 0 {
			ops = 20
		}
		cov := hotkey.CoverFull
		if sp.Coverage != "" {
			cov, _ = hotkey.ParseCoverage(sp.Coverage) // validated by Validate
		}
		res, err := hotkey.Run(hotkey.Options{
			Nodes: sp.Nodes, Clients: clients, Ops: ops,
			Coverage: cov, Seed: seed, Faults: plan,
			BatchWindow: batch, AckDelay: ackDelay, Reliable: ackDelay > 0,
			CheckpointInterval: ckpt,
			Profile:            prof,
			Extra:              extra,
		})
		if err != nil {
			return RunResult{}, err
		}
		return RunResult{
			// The op ledger and final value are interleaving-independent, so
			// they stay comparable between the baseline and the faulted run
			// even though faults reorder the overlapped invocations.
			Answer:  fmt.Sprintf("ops=%d final=%d", res.Ops, res.Final),
			Elapsed: res.Elapsed,
			Stats:   res.Stats,
			Profile: res.Report.Profile,
		}, nil
	case "diffusion":
		grid, iters := sp.Grid, sp.Iters
		if grid == 0 {
			grid = 8
		}
		if iters == 0 {
			iters = 5
		}
		res, err := diffusion.Run(diffusion.Options{
			W: grid, H: grid, Iters: iters, Nodes: sp.Nodes,
			BlockPlace: true, Seed: seed, Faults: plan,
			BatchWindow: batch, AckDelay: ackDelay, Reliable: ackDelay > 0,
			CheckpointInterval: ckpt,
			Profile:            prof,
			Extra:              extra,
		})
		if err != nil {
			return RunResult{}, err
		}
		return RunResult{
			Answer:  fmt.Sprintf("residual=%.9g", res.Residual),
			Elapsed: res.Elapsed,
			Stats:   res.Stats,
			Profile: res.Report.Profile,
		}, nil
	}
	return RunResult{}, fmt.Errorf("unknown workload %q", sp.Workload)
}

// Load reads one scenario spec from a JSON file.
func Load(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var sp Spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return Spec{}, fmt.Errorf("scenario %s: %w", path, err)
	}
	return sp, sp.Validate()
}

// Report writes a human-readable outcome summary.
func (o Outcome) Report() string {
	c := o.Faulted.Stats
	s := fmt.Sprintf("scenario %-24s %-9s  %s\n", o.Spec.Name, o.Spec.Workload, o.Faulted.Answer)
	s += fmt.Sprintf("  baseline %-12v faulted %-12v (%.2fx)\n",
		o.Baseline.Elapsed, o.Faulted.Elapsed, slowdown(o.Baseline.Elapsed, o.Faulted.Elapsed))
	s += fmt.Sprintf("  drops=%d dups=%d pauses=%d retransmits=%d dup-suppressed=%d held=%d lost=%d\n",
		c.LinkDrops, c.LinkDups, c.NodePauses,
		c.Retransmits, c.DupSuppressed, c.HeldOutOfOrder, c.LostMessages())
	if c.CkptRounds > 0 || c.NodeCrashes > 0 {
		s += fmt.Sprintf("  checkpoint: rounds=%d stable-bytes=%d crashes=%d restarts=%d replayed=%d\n",
			c.CkptRounds, c.CkptBytes, c.NodeCrashes, c.NodeRestarts, c.ReplayedMsgs)
	}
	s += profileDigest(o.Faulted.Profile)
	if o.OK() {
		s += "  PASS\n"
	} else {
		for _, v := range o.Violations {
			s += fmt.Sprintf("  FAIL: %s\n", v)
		}
	}
	return s
}

// profileDigest condenses a profile report into two "where did the time
// go" lines: the heaviest attribution paths, and the busiest time slice.
// Empty when the spec did not ask for profiling.
func profileDigest(p *abcl.ProfileReport) string {
	if p == nil {
		return ""
	}
	paths := append([]abcl.PathStat(nil), p.Paths...)
	sort.Slice(paths, func(i, j int) bool { return paths[i].Instr > paths[j].Instr })
	if len(paths) > 3 {
		paths = paths[:3]
	}
	s := fmt.Sprintf("  profile: dormant=%.0f%% of local deliveries; heaviest paths:", p.DormantFraction*100)
	for _, ps := range paths {
		s += fmt.Sprintf(" %s %.0f%%", ps.Path, ps.InstrShare*100)
	}
	s += "\n"
	if len(p.Slices) > 0 {
		busy := 0
		for i, sl := range p.Slices {
			if sl.Instr > p.Slices[busy].Instr {
				busy = i
			}
		}
		sl := p.Slices[busy]
		s += fmt.Sprintf("  profile: %d slices of %v; busiest [%v,%v) instr=%d packets=%d\n",
			len(p.Slices), p.Window, sl.Start, sl.Start+p.Window, sl.Instr, sl.Packets)
	}
	return s
}

func slowdown(base, faulted sim.Time) float64 {
	if base <= 0 {
		return 0
	}
	return float64(faulted) / float64(base)
}
