// Command abclsim runs an ABCL workload on the simulated multicomputer and
// reports virtual-time performance and runtime statistics.
//
//	abclsim -workload nqueens -n 11 -nodes 512
//	abclsim -workload nqueens -n 10 -nodes 64 -policy naive
//	abclsim -workload pingpong -nodes 2
//	abclsim -workload forkjoin -depth 12 -nodes 64
//
// Any workload can run over a faulty interconnect (which switches the
// inter-node layer to its reliable ack/retry protocol):
//
//	abclsim -workload forkjoin -depth 10 -nodes 16 -drop 0.1 -dup 0.05
//
// The wire-path optimisations — per-link packet batching, delayed
// cumulative acks, the remote-location cache — are controlled by
// -batch-window, -batch-bytes, -ack-delay, -reliable and -no-loc-cache;
// each workload header echoes the effective comms configuration:
//
//	abclsim -workload nqueens -n 10 -nodes 256 -batch-window 10000 -ack-delay 500000
//
// Periodic coordinated checkpoints and crash faults exercise the recovery
// subsystem: -checkpoint-interval snapshots the whole machine on a virtual
// cadence, and each (repeatable) -crash kills a node and restarts it from
// the latest checkpoint:
//
//	abclsim -workload nqueens -n 8 -nodes 8 -checkpoint-interval 200us -crash 2@1ms+300us
//
// Declarative fault scenarios (fleet + fault schedule + assertions) run via
// the scenario workload:
//
//	abclsim -workload scenario -scenario all
//	abclsim -workload scenario -scenario nqueens-lossy
//	abclsim -workload scenario -scenario path/to/spec.json
//
// Any configured run can be captured as a verifiable artifact: -pack writes
// an integrity-checked runpack archive (config + seed + full trace + profile
// + report), and the verify/diff/regress subcommands replay and compare
// archives:
//
//	abclsim -workload hotkey -coverage full -pack out/
//	abclsim verify out/runpack_<id>.zip
//	abclsim diff a.zip b.zip
//	abclsim regress testdata/runpacks
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	abcl "repro"
	"repro/internal/apps/diffusion"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
	"repro/internal/apps/orderbook"
	"repro/internal/apps/pingpong"
	"repro/internal/machine"
	"repro/internal/runpack"
	"repro/internal/scenario"
	"repro/internal/trace"
)

var (
	workload  = flag.String("workload", "nqueens", "workload: nqueens | pingpong | forkjoin | diffusion | hotkey | orderbook | scenario")
	scen      = flag.String("scenario", "all", "scenario to run: all | <bundled name> | <path to .json>")
	n         = flag.Int("n", 10, "N-queens board size")
	depth     = flag.Int("depth", 10, "fork-join tree depth")
	grid      = flag.Int("grid", 16, "diffusion grid edge length")
	gridIters = flag.Int("grid-iters", 10, "diffusion iterations")
	block     = flag.Bool("block", true, "diffusion: block placement (vs scatter)")
	clients   = flag.Int("clients", 16, "hotkey/orderbook: closed-loop client objects")
	opsPer    = flag.Int("ops", 40, "hotkey/orderbook: operations per client")
	writePct  = flag.Int("write-pct", 20, "hotkey: percentage of operations that are writes")
	coverage  = flag.String("coverage", "full", "hotkey: annotation coverage none | partial | full")
	grouped   = flag.Bool("grouped", true, "orderbook: declare compatibility groups on the book")
	reorder   = flag.Int("reorder", 0, "hotkey/orderbook: bounded-reordering annotation (0 = strict)")
	nodes     = flag.Int("nodes", 64, "number of processing nodes")
	policy    = flag.String("policy", "stack", "scheduling policy: stack | naive")
	placement = flag.String("placement", "random", "placement: random | rr | local | load | depth")
	seed      = flag.Int64("seed", 1, "random placement seed")
	stock     = flag.Int("stock", 2, "chunk-stock depth (-1 disables)")
	iters     = flag.Int("iters", 1000, "ping-pong iterations")
	traceN    = flag.Int("trace", 0, "dump the last N runtime trace events (nqueens)")

	drop   = flag.Float64("drop", 0, "link fault: per-packet drop probability [0,1)")
	dup    = flag.Float64("dup", 0, "link fault: per-packet duplication probability [0,1]")
	jitter = flag.Int64("jitter", 0, "link fault: max extra latency per packet (ns)")

	ckptInterval timeFlag
	crashes      crashList

	batchWindow = flag.Int64("batch-window", 0, "per-link packet batching window (ns); 0 disables batching")
	batchBytes  = flag.Int("batch-bytes", 0, "batch early-flush byte budget (0 selects the default)")
	ackDelay    = flag.Int64("ack-delay", 0, "delayed cumulative ack interval (ns); 0 keeps immediate acks; implies -reliable")
	reliable    = flag.Bool("reliable", false, "run the ack/retry protocol even on a fault-free network")
	noLocCache  = flag.Bool("no-loc-cache", false, "disable the post-migration remote-location cache")

	execFlag   executorFlag
	optWindow  timeFlag // -optimistic-window
	parSim     = flag.Int("parallel-sim", 0, "deprecated: alias for -executor conservative:N")
	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	benchJSON  = flag.String("bench-json", "", "write a wall-clock benchmark summary (JSON) to this file")

	packOut    = flag.String("pack", "", "execute the configured run and write a verifiable runpack archive to this file or directory")
	profileOut = flag.String("profile", "", "stream runtime events as JSON Lines to this file (any workload)")
	metricsOut = flag.String("metrics", "", "write an event-count metrics summary (JSON) to this file (any workload)")
	costTable  = flag.Bool("cost-table", false, "enable the cost-attribution profiler and print the per-path cost table")
	profWindow timeFlag // -profile-window: time-series slice width for the profiler
)

// Observer sinks resolved from -profile / -metrics, attached by sysOptions
// and finalized (flushed, summarised) by closeObservers after the run.
var (
	profileSink *trace.JSONL
	profileFile *os.File
	metricsSink *trace.Metrics
)

func init() {
	flag.Var(&ckptInterval, "checkpoint-interval",
		"coordinated checkpoint cadence, as ns or a Go duration (e.g. 200us); 0 disables periodic checkpoints")
	flag.Var(&crashes, "crash",
		"crash fault node@at+restartAfter (ns or Go durations, e.g. 2@1ms+300us); repeatable; implies checkpoint support")
	flag.Var(&profWindow, "profile-window",
		"cost-profiler time-series slice width, as ns or a Go duration; implies -cost-table")
	flag.Var(&execFlag, "executor",
		"execution strategy: sequential | conservative[:N] | optimistic[:N] (N workers, default GOMAXPROCS)")
	flag.Var(&optWindow, "optimistic-window",
		"optimistic executor: speculation window width, as ns or a Go duration (0 = adaptive default)")
}

// executorFlag is the -executor value: sequential, or a parallel strategy
// with an optional ":N" worker count.
type executorFlag struct {
	kind    string
	workers int
}

func (e *executorFlag) String() string {
	if e.kind == "" || e.kind == "sequential" {
		return "sequential"
	}
	return fmt.Sprintf("%s:%d", e.kind, e.workers)
}

func (e *executorFlag) Set(s string) error {
	name, ns, hasN := strings.Cut(s, ":")
	w := runtime.GOMAXPROCS(0)
	if hasN {
		v, err := strconv.Atoi(ns)
		if err != nil || v < 1 {
			return fmt.Errorf("executor %q: worker count must be a positive integer", s)
		}
		w = v
	}
	switch name {
	case "sequential":
		if hasN {
			return fmt.Errorf("executor %q: sequential takes no worker count", s)
		}
		*e = executorFlag{kind: name}
	case "conservative", "optimistic":
		*e = executorFlag{kind: name, workers: w}
	default:
		return fmt.Errorf("executor %q: want sequential | conservative[:N] | optimistic[:N]", s)
	}
	return nil
}

// executorSpec folds -executor and the deprecated -parallel-sim into one
// spec; ok is false when the run is sequential.
func executorSpec() (spec abcl.ExecutorSpec, ok bool) {
	kind, workers := execFlag.kind, execFlag.workers
	if kind == "" && *parSim > 1 {
		kind, workers = "conservative", *parSim
	}
	switch kind {
	case "conservative":
		return abcl.Conservative(workers), workers > 1
	case "optimistic":
		return abcl.Optimistic(workers, abcl.OptimisticOptions{Window: abcl.Time(optWindow)}), workers > 1
	}
	return abcl.Sequential(), false
}

// benchEvents/benchMsgs are filled by workloads that expose their engine and
// message counts, for the -bench-json summary.
var (
	benchEvents atomic.Uint64
	benchMsgs   atomic.Uint64
)

// timeFlag is a virtual-time flag value accepting either raw nanoseconds
// ("200000") or a Go duration ("200us").
type timeFlag abcl.Time

func (t *timeFlag) String() string { return fmt.Sprintf("%d", int64(*t)) }

func (t *timeFlag) Set(s string) error {
	v, err := parseVirtualTime(s)
	if err != nil {
		return err
	}
	*t = timeFlag(v)
	return nil
}

// crashList collects repeated -crash flags, each "node@at+restartAfter".
type crashList []abcl.NodeCrash

func (c *crashList) String() string {
	parts := make([]string, len(*c))
	for i, nc := range *c {
		parts[i] = fmt.Sprintf("%d@%d+%d", nc.Node, int64(nc.At), int64(nc.RestartAfter))
	}
	return strings.Join(parts, ",")
}

func (c *crashList) Set(s string) error {
	nodeStr, rest, ok := strings.Cut(s, "@")
	if !ok {
		return fmt.Errorf("crash %q: want node@at+restartAfter", s)
	}
	atStr, durStr, ok := strings.Cut(rest, "+")
	if !ok {
		return fmt.Errorf("crash %q: want node@at+restartAfter", s)
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		return fmt.Errorf("crash %q: bad node: %v", s, err)
	}
	at, err := parseVirtualTime(atStr)
	if err != nil {
		return fmt.Errorf("crash %q: bad crash time: %v", s, err)
	}
	dur, err := parseVirtualTime(durStr)
	if err != nil {
		return fmt.Errorf("crash %q: bad restart-after: %v", s, err)
	}
	*c = append(*c, abcl.NodeCrash{Node: node, At: at, RestartAfter: dur})
	return nil
}

// parseVirtualTime reads a virtual-time value as raw nanoseconds or a Go
// duration string.
func parseVirtualTime(s string) (abcl.Time, error) {
	if ns, err := strconv.ParseInt(s, 10, 64); err == nil {
		return abcl.Time(ns), nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	return abcl.Time(d.Nanoseconds()), nil
}

// faultPlan translates the -drop/-dup/-jitter/-crash flags into a FaultPlan;
// the zero plan disables injection (and the reliable protocol with it).
func faultPlan() abcl.FaultPlan {
	var p abcl.FaultPlan
	if *drop != 0 || *dup != 0 || *jitter != 0 {
		p = abcl.UniformFaults(*drop, *dup, abcl.Time(*jitter))
	}
	for _, c := range crashes {
		p = p.WithCrash(c.Node, c.At, c.RestartAfter)
	}
	return p
}

// sysOptions assembles the common System options from the flag set.
func sysOptions() []abcl.Option {
	opts := []abcl.Option{
		abcl.WithNodes(*nodes),
		abcl.WithPolicy(parsePolicy()),
		abcl.WithPlacement(parsePlacement()),
	}
	if *seed != 0 {
		opts = append(opts, abcl.WithSeed(*seed))
	}
	switch {
	case *stock < 0:
		opts = append(opts, abcl.WithoutChunkStock())
	case *stock > 0:
		opts = append(opts, abcl.WithChunkStock(*stock))
	}
	if spec, ok := executorSpec(); ok {
		opts = append(opts, abcl.WithExecutor(spec))
	}
	if p := faultPlan(); p.Enabled() {
		opts = append(opts, abcl.WithFaults(p))
	}
	if *batchWindow != 0 { // negatives flow through so option validation rejects them
		opts = append(opts, abcl.WithBatching(abcl.Time(*batchWindow), *batchBytes))
	}
	if *reliable || *ackDelay > 0 {
		opts = append(opts, abcl.WithReliable())
	}
	if *ackDelay != 0 {
		opts = append(opts, abcl.WithDelayedAcks(abcl.Time(*ackDelay)))
	}
	if *noLocCache {
		opts = append(opts, abcl.WithoutLocationCache())
	}
	if ckptInterval > 0 {
		opts = append(opts, abcl.WithCheckpoint(abcl.Time(ckptInterval)))
	}
	opts = append(opts, observerOpts()...)
	if *costTable || profWindow > 0 {
		opts = append(opts, abcl.WithProfiler(abcl.ProfileOptions{
			Window:  abcl.Time(profWindow),
			Classes: true,
		}))
	}
	return opts
}

// observerOpts turns the resolved -profile/-metrics sinks into options, for
// sysOptions and for workloads that build their Systems internally.
func observerOpts() []abcl.Option {
	var opts []abcl.Option
	if profileSink != nil {
		opts = append(opts, abcl.WithObserver(profileSink))
	}
	if metricsSink != nil {
		opts = append(opts, abcl.WithObserver(metricsSink))
	}
	return opts
}

// extraOpts carries flag-driven options into workloads whose Options structs
// build the System themselves (diffusion, hotkey, orderbook, pingpong):
// observers, parallel execution, location-cache control.
func extraOpts() []abcl.Option {
	opts := observerOpts()
	if spec, ok := executorSpec(); ok {
		opts = append(opts, abcl.WithExecutor(spec))
	}
	if *noLocCache {
		opts = append(opts, abcl.WithoutLocationCache())
	}
	return opts
}

// scenarioObserver merges the -profile/-metrics sinks into the single
// observer a scenario run attaches to both its baseline and faulted systems;
// nil when neither flag is set.
func scenarioObserver() trace.Sink {
	switch {
	case profileSink != nil && metricsSink != nil:
		return trace.Tee(profileSink, metricsSink)
	case profileSink != nil:
		return profileSink
	case metricsSink != nil:
		return metricsSink
	}
	return nil
}

// openObservers resolves the -profile/-metrics flags into trace sinks before
// the workload builds its System.
func openObservers() error {
	if *profileOut != "" {
		f, err := os.Create(*profileOut)
		if err != nil {
			return err
		}
		profileFile = f
		profileSink = trace.NewJSONL(f)
	}
	if *metricsOut != "" {
		metricsSink = trace.NewMetrics()
	}
	return nil
}

// closeObservers flushes the -profile stream and writes the -metrics summary
// after the workload finished.
func closeObservers() error {
	if profileSink != nil {
		err := profileSink.Err()
		if cerr := profileFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("profile stream %s: %w", *profileOut, err)
		}
	}
	if metricsSink != nil {
		b, err := json.MarshalIndent(metricsSink.Summary(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*metricsOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printCostTable emits the profiler's per-path cost table (Section 6 of the
// paper, measured live) when -cost-table or -profile-window is in effect.
func printCostTable(rep abcl.Report) {
	p := rep.Profile
	if p == nil {
		return
	}
	fmt.Printf("  per-path cost attribution (%d instructions total):\n", p.TotalInstr)
	fmt.Printf("    %-14s %12s %12s %8s %10s %10s\n", "path", "events", "instr", "share", "instr/ev", "packets")
	for _, ps := range p.Paths {
		perEv := ""
		if ps.Events > 0 {
			perEv = fmt.Sprintf("%.1f", ps.InstrPerEvent)
		}
		fmt.Printf("    %-14s %12d %12d %7.1f%% %10s %10d\n",
			ps.Path, ps.Events, ps.Instr, 100*ps.InstrShare, perEv, ps.Packets)
	}
	fmt.Printf("    dormant fraction of local deliveries: %.0f%%\n", 100*p.DormantFraction)
	for _, cs := range p.Classes {
		fmt.Printf("    class %-20s dormant=%d active=%d restore=%d body-instr=%d\n",
			cs.Class, cs.Dormant, cs.Active, cs.Restore, cs.BodyInstr)
	}
}

// commsLine describes the effective wire-path configuration of a built
// system for the workload headers: batching, ack strategy, protocol,
// location cache.
func commsLine(sys *abcl.System) string {
	return fmt.Sprintf("comms: %s", sys.Net)
}

func main() {
	// Archive subcommands take positional arguments, not flags; dispatch
	// before flag parsing so "abclsim verify pack.zip" just works.
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "verify", "diff", "regress":
			if err := runSubcommand(os.Args[1], os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "abclsim:", err)
				os.Exit(1)
			}
			return
		}
	}
	flag.Parse()
	if *packOut != "" && (*profileOut != "" || *metricsOut != "") {
		fmt.Fprintln(os.Stderr, "abclsim: -pack captures its own trace; drop -profile/-metrics")
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "abclsim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "abclsim:", err)
			os.Exit(1)
		}
	}
	if err := openObservers(); err != nil {
		fmt.Fprintln(os.Stderr, "abclsim:", err)
		os.Exit(1)
	}
	start := time.Now()
	var err error
	switch {
	case *packOut != "":
		err = runPack()
	case *workload == "nqueens":
		err = runNQueens()
	case *workload == "pingpong":
		err = runPingPong()
	case *workload == "forkjoin":
		err = runForkJoin()
	case *workload == "diffusion":
		err = runDiffusion()
	case *workload == "hotkey":
		err = runHotKey()
	case *workload == "orderbook":
		err = runOrderBook()
	case *workload == "scenario":
		err = runScenarios()
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	wall := time.Since(start)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if oerr := closeObservers(); err == nil {
		err = oerr
	}
	if *memprofile != "" {
		if perr := writeMemProfile(*memprofile); err == nil {
			err = perr
		}
	}
	if *benchJSON != "" && err == nil {
		err = writeBenchJSON(*benchJSON, wall)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "abclsim:", err)
		os.Exit(1)
	}
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// writeBenchJSON emits a machine-readable throughput summary of the run, for
// before/after comparisons (make bench-baseline / bench-compare).
func writeBenchJSON(path string, wall time.Duration) error {
	ev, msgs := benchEvents.Load(), benchMsgs.Load()
	executor := "sequential"
	if spec, ok := executorSpec(); ok {
		executor = spec.String()
	}
	sum := struct {
		Workload     string  `json:"workload"`
		Nodes        int     `json:"nodes"`
		Executor     string  `json:"executor"`
		WallMs       float64 `json:"wall_ms"`
		Events       uint64  `json:"events"`
		EventsPerSec float64 `json:"events_per_sec"`
		Messages     uint64  `json:"messages"`
		MsgsPerSec   float64 `json:"msgs_per_sec"`
	}{
		Workload: *workload,
		Nodes:    *nodes,
		Executor: executor,
		WallMs:   float64(wall.Nanoseconds()) / 1e6,
		Events:   ev,
		Messages: msgs,
	}
	if s := wall.Seconds(); s > 0 {
		sum.EventsPerSec = float64(ev) / s
		sum.MsgsPerSec = float64(msgs) / s
	}
	b, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runSubcommand handles the positional archive commands: verify replays one
// pack, diff explains two, regress re-verifies a directory of them.
func runSubcommand(cmd string, args []string) error {
	switch cmd {
	case "verify":
		if len(args) != 1 {
			return fmt.Errorf("usage: abclsim verify <pack.zip>")
		}
		p, err := runpack.Open(args[0])
		if err != nil {
			return err
		}
		v, err := runpack.Verify(p)
		if err != nil {
			return err
		}
		fmt.Print(v.Summary(p))
		if !v.OK {
			return fmt.Errorf("runpack %s failed verification", p.Manifest.ID)
		}
		return nil
	case "diff":
		if len(args) != 2 {
			return fmt.Errorf("usage: abclsim diff <a.zip> <b.zip>")
		}
		a, err := runpack.Open(args[0])
		if err != nil {
			return err
		}
		b, err := runpack.Open(args[1])
		if err != nil {
			return err
		}
		fmt.Print(runpack.Diff(a, b).Summary(a, b))
		return nil
	case "regress":
		dir := "testdata/runpacks"
		if len(args) > 1 {
			return fmt.Errorf("usage: abclsim regress [dir]")
		}
		if len(args) == 1 {
			dir = args[0]
		}
		return runpack.Regress(dir, os.Stdout)
	}
	return fmt.Errorf("unknown subcommand %q", cmd)
}

// packConfig snapshots the flag set into a replayable RunConfig. A scenario
// pack embeds one named spec — "all" has no single trace to pin.
func packConfig() (runpack.RunConfig, error) {
	cfg := runpack.RunConfig{
		Workload:        *workload,
		Nodes:           *nodes,
		Seed:            *seed,
		Policy:          *policy,
		Placement:       *placement,
		Stock:           *stock,
		N:               *n,
		Depth:           *depth,
		Grid:            *grid,
		GridIters:       *gridIters,
		Scatter:         !*block,
		Iters:           *iters,
		Clients:         *clients,
		Ops:             *opsPer,
		WritePct:        *writePct,
		Coverage:        *coverage,
		Ungrouped:       !*grouped,
		Reorder:         *reorder,
		Drop:            *drop,
		Dup:             *dup,
		JitterNs:        *jitter,
		BatchWindowNs:   *batchWindow,
		BatchBytes:      *batchBytes,
		AckDelayNs:      *ackDelay,
		Reliable:        *reliable,
		NoLocCache:      *noLocCache,
		CkptIntervalNs:  int64(ckptInterval),
		ProfileWindowNs: int64(profWindow),
	}
	if kind := execFlag.kind; kind != "" && kind != "sequential" {
		cfg.Executor = kind
		cfg.Workers = execFlag.workers
		if kind == "optimistic" {
			cfg.OptimisticWindowNs = int64(optWindow)
		}
	} else if *parSim > 1 {
		cfg.Executor = "conservative"
		cfg.Workers = *parSim
	}
	for _, c := range crashes {
		cfg.Crashes = append(cfg.Crashes, runpack.Crash{
			Node: c.Node, AtNs: int64(c.At), RestartAfterNs: int64(c.RestartAfter),
		})
	}
	if *workload == "scenario" {
		var sp scenario.Spec
		var err error
		switch {
		case *scen == "all":
			return cfg, fmt.Errorf("-pack needs one scenario (-scenario <name|file.json>), not %q", *scen)
		case strings.HasSuffix(*scen, ".json"):
			sp, err = scenario.Load(*scen)
		default:
			sp, err = scenario.Find(*scen)
		}
		if err != nil {
			return cfg, err
		}
		cfg.Scenario = &sp
	}
	return cfg, nil
}

// runPack executes the configured run under the runpack executor and writes
// the archive.
func runPack() error {
	cfg, err := packConfig()
	if err != nil {
		return err
	}
	p, path, err := runpack.Create(cfg, *packOut)
	if err != nil {
		return err
	}
	fmt.Printf("packed %s\n", path)
	fmt.Printf("  id        %s\n", p.Manifest.ID)
	fmt.Printf("  workload  %s\n", p.Config.Workload)
	fmt.Printf("  trace     %d events, sha256 %s...\n",
		p.Manifest.TraceEvents, p.Manifest.TraceSHA256[:12])
	if p.Manifest.ParallelChecked {
		fmt.Printf("  parallel  %s executor cross-checked against the sequential run\n", p.Manifest.Executor)
	}
	fmt.Printf("  next      abclsim verify %s\n", path)
	return nil
}

func parsePolicy() abcl.Policy {
	if *policy == "naive" {
		return abcl.Naive
	}
	return abcl.StackBased
}

func parsePlacement() abcl.Placement {
	switch *placement {
	case "rr":
		return abcl.PlaceRoundRobin
	case "local":
		return abcl.PlaceLocal
	case "load":
		return abcl.PlaceLoadBased
	case "depth":
		return abcl.PlaceDepthLocal
	default:
		return abcl.PlaceRandom
	}
}

func runNQueens() error {
	seq := nqueens.Sequential(*n, machine.DefaultConfig(1), 0)
	opts := sysOptions()
	var ring *trace.Ring
	if *traceN > 0 {
		ring = trace.NewRing(*traceN)
		opts = append(opts, abcl.WithObserver(ring))
	}
	sys, err := abcl.NewSystem(opts...)
	if err != nil {
		return err
	}
	drv := nqueens.Build(sys, *n, 0)
	drv.Start()
	if err := sys.Run(); err != nil {
		return err
	}
	res, err := drv.Result()
	if err != nil {
		return err
	}
	benchEvents.Store(sys.M.Eng.Fired())
	benchMsgs.Store(uint64(res.Messages))
	fmt.Printf("N-queens N=%d on %d nodes (%s scheduling, %s placement)\n",
		*n, *nodes, parsePolicy(), parsePlacement().Name())
	fmt.Printf("  %s\n", commsLine(sys))
	fmt.Printf("  solutions        %d (expected %d)\n", res.Solutions, seq.Solutions)
	fmt.Printf("  objects created  %d\n", res.Objects)
	fmt.Printf("  messages         %d\n", res.Messages)
	fmt.Printf("  elapsed          %v (sequential %v)\n", res.Elapsed, seq.Elapsed)
	fmt.Printf("  speedup          %.1fx on %d nodes\n",
		float64(seq.Elapsed)/float64(res.Elapsed), *nodes)
	fmt.Printf("  utilization      %.1f%%\n", 100*res.Utilization)
	fmt.Printf("  memory model     %.0f KB\n", float64(res.MemoryBytes)/1024)
	printStats(res.Stats)
	printCostTable(res.Report)
	if ring != nil {
		fmt.Printf("  last %d trace events:\n", ring.Len())
		if err := ring.Dump(os.Stdout); err != nil {
			return err
		}
	}
	return nil
}

func runPingPong() error {
	extra := extraOpts()
	d, err := pingpong.PastLocal(*iters, extra...)
	if err != nil {
		return err
	}
	a, err := pingpong.PastLocalActive(*iters, extra...)
	if err != nil {
		return err
	}
	c, err := pingpong.CreateLocal(*iters, extra...)
	if err != nil {
		return err
	}
	r, err := pingpong.PastRemote(*iters, extra...)
	if err != nil {
		return err
	}
	w, err := pingpong.NowRemote(*iters/10, extra...)
	if err != nil {
		return err
	}
	fmt.Printf("ping-pong microbenchmarks (%d iterations)\n", *iters)
	fmt.Printf("  intra-node past to dormant   %v/op\n", d.PerOp)
	fmt.Printf("  intra-node past to active    %v/op\n", a.PerOp)
	fmt.Printf("  intra-node creation          %v/op\n", c.PerOp)
	fmt.Printf("  inter-node past (one-way)    %v/op\n", r.PerOp)
	fmt.Printf("  inter-node now (round trip)  %v/op\n", w.PerOp)
	return nil
}

func runForkJoin() error {
	sys, err := abcl.NewSystem(sysOptions()...)
	if err != nil {
		return err
	}
	leaves, err := misc.RunForkJoinOn(sys, *depth)
	if err != nil {
		return err
	}
	c := sys.Report().Sched.Counters
	benchEvents.Store(sys.M.Eng.Fired())
	benchMsgs.Store(c.LocalToDormant + c.LocalToActive + c.RemoteSends)
	fmt.Printf("fork-join depth=%d on %d nodes: %d leaves (expected %d)\n",
		*depth, *nodes, leaves, int64(1)<<uint(*depth))
	fmt.Printf("  %s\n", commsLine(sys))
	printCostTable(sys.Report())
	return nil
}

func runDiffusion() error {
	res, err := diffusion.Run(diffusion.Options{
		W: *grid, H: *grid, Iters: *gridIters, Nodes: *nodes,
		Policy: parsePolicy(), BlockPlace: *block,
		Seed: *seed, Faults: faultPlan(),
		BatchWindow: abcl.Time(*batchWindow), AckDelay: abcl.Time(*ackDelay),
		Reliable:           *reliable || *ackDelay > 0,
		CheckpointInterval: abcl.Time(ckptInterval),
		Extra:              extraOpts(),
	})
	if err != nil {
		return err
	}
	fmt.Printf("diffusion %dx%d, %d iterations on %d nodes (%s placement)\n",
		*grid, *grid, *gridIters, *nodes, map[bool]string{true: "block", false: "scatter"}[*block])
	fmt.Printf("  elapsed       %v\n", res.Elapsed)
	fmt.Printf("  utilization   %.1f%%\n", 100*res.Utilization)
	fmt.Printf("  residual      %.6g (sequential: %.6g)\n",
		res.Residual, diffusion.SequentialResidual(*grid, *grid, *gridIters))
	printStats(res.Stats)
	return nil
}

func runHotKey() error {
	cov, err := hotkey.ParseCoverage(*coverage)
	if err != nil {
		return err
	}
	res, err := hotkey.Run(hotkey.Options{
		Nodes: *nodes, Clients: *clients, Ops: *opsPer,
		WritePct: *writePct, Coverage: cov, Reorder: *reorder,
		Seed: *seed, Faults: faultPlan(),
		BatchWindow: abcl.Time(*batchWindow), AckDelay: abcl.Time(*ackDelay),
		Reliable:           *reliable || *ackDelay > 0,
		CheckpointInterval: abcl.Time(ckptInterval),
		Extra:              extraOpts(),
	})
	if err != nil {
		return err
	}
	benchMsgs.Store(uint64(res.Ops))
	fmt.Printf("hotkey: %d clients x %d ops on %d nodes (coverage %s, %d%% writes)\n",
		*clients, *opsPer, *nodes, cov, *writePct)
	fmt.Printf("  elapsed       %v\n", res.Elapsed)
	fmt.Printf("  throughput    %.1f ops/ms\n", res.Throughput)
	fmt.Printf("  peak overlap  %d concurrent invocations\n", res.MaxLive)
	fmt.Printf("  final value   %d (= %d writes; %d reads)\n", res.Final, res.Writes, res.Reads)
	printStats(res.Stats)
	return nil
}

func runOrderBook() error {
	res, err := orderbook.Run(orderbook.Options{
		Nodes: *nodes, Clients: *clients, Ops: *opsPer,
		Grouped: *grouped, Reorder: *reorder, Seed: *seed,
		Extra: extraOpts(),
	})
	if err != nil {
		return err
	}
	benchMsgs.Store(uint64(res.Ops))
	fmt.Printf("orderbook: %d clients x %d ops on %d nodes (grouped=%v)\n",
		*clients, *opsPer, *nodes, *grouped)
	fmt.Printf("  elapsed       %v\n", res.Elapsed)
	fmt.Printf("  throughput    %.1f ops/ms\n", res.Throughput)
	fmt.Printf("  peak overlap  %d concurrent invocations\n", res.MaxLive)
	fmt.Printf("  ops           %d reads, %d deposits, %d transfers\n", res.Reads, res.Deposits, res.Transfers)
	fmt.Printf("  conservation  total %d = initial + deposits %d\n", res.Total, res.WantTotal)
	printStats(res.Stats)
	return nil
}

// runScenarios resolves -scenario (all bundled, one bundled by name, or a
// JSON file) and executes each spec: fault-free baseline, faulted run,
// assertions. A failed assertion fails the command.
func runScenarios() error {
	var specs []scenario.Spec
	switch {
	case *scen == "all":
		var err error
		if specs, err = scenario.Bundled(); err != nil {
			return err
		}
	case strings.HasSuffix(*scen, ".json"):
		sp, err := scenario.Load(*scen)
		if err != nil {
			return err
		}
		specs = []scenario.Spec{sp}
	default:
		sp, err := scenario.Find(*scen)
		if err != nil {
			return err
		}
		specs = []scenario.Spec{sp}
	}
	// Each scenario builds its own fault-free and faulted systems, so the
	// suite runs concurrently across GOMAXPROCS. Reports are collected into
	// indexed slots and printed in spec order, identical to a serial run.
	// With a -profile/-metrics observer attached the sink is shared, so the
	// suite runs serially to keep the event stream deterministic.
	outs := make([]scenario.Outcome, len(specs))
	errs := make([]error, len(specs))
	if obs := scenarioObserver(); obs != nil {
		for i := range specs {
			outs[i], errs[i] = scenario.RunWith(specs[i], scenario.RunOpts{Observer: obs})
		}
	} else {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(specs) {
			workers = len(specs)
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(specs) {
						return
					}
					outs[i], errs[i] = scenario.Run(specs[i])
				}
			}()
		}
		wg.Wait()
	}
	failed := 0
	for i := range specs {
		if errs[i] != nil {
			return errs[i]
		}
		fmt.Print(outs[i].Report())
		if !outs[i].OK() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenarios failed", failed, len(specs))
	}
	fmt.Printf("%d scenarios passed\n", len(specs))
	return nil
}

func printStats(c abcl.Counters) {
	fmt.Println("  runtime counters:")
	fmt.Printf("    local msgs: dormant=%d active=%d restores=%d (dormant fraction %.0f%%)\n",
		c.LocalToDormant, c.LocalToActive, c.LocalRestores, 100*c.DormantFraction())
	fmt.Printf("    remote msgs: %d   creations: local=%d remote=%d\n",
		c.RemoteSends, c.LocalCreations, c.RemoteCreations)
	fmt.Printf("    chunk stock: hits=%d misses=%d   fault-buffered=%d\n",
		c.StockHits, c.StockMisses, c.FaultBuffered)
	fmt.Printf("    scheduling queue: enq=%d deq=%d   preemptions=%d heap frames=%d\n",
		c.SchedEnqueues, c.SchedDequeues, c.Preemptions, c.HeapFrames)
	if c.RelSent > 0 || c.LinkDrops > 0 || c.NodePauses > 0 {
		fmt.Printf("    faults: drops=%d dups=%d pauses=%d\n",
			c.LinkDrops, c.LinkDups, c.NodePauses)
		fmt.Printf("    reliable: sent=%d delivered=%d retransmits=%d dup-suppressed=%d held=%d lost=%d\n",
			c.RelSent, c.RelDelivered, c.Retransmits, c.DupSuppressed, c.HeldOutOfOrder, c.LostMessages())
	}
	if c.CkptRounds > 0 || c.NodeCrashes > 0 {
		fmt.Printf("    checkpoint: rounds=%d stable-bytes=%d   crashes=%d restarts=%d replayed=%d\n",
			c.CkptRounds, c.CkptBytes, c.NodeCrashes, c.NodeRestarts, c.ReplayedMsgs)
	}
}
