// Command perfbench is the repository's benchmark. It runs one workload of
// complete deterministic simulations back to back (a closed loop with one
// client), checks every op's answer and virtual-time digest, and prints its
// metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload nqueens --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced. The
// run is split over several child processes, run one after another, and
// their ops are pooled: on a shared host one process's speed is set early
// and persists, so pooling processes averages that effect out. With
// --trace 1 it prints the per-layer metrics from one process: it alternates
// untraced blocks, for the tracing overhead, with blocks under a CPU profile
// it groups by package, with spans around its own calls and counts read
// from the System after each op. bash perfbench/run.sh builds and runs it
// from the repository root.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// minOps gives the end-to-end p90 at least ten samples beyond it.
	minOps = 110
	// procs child processes share an untraced run.
	procs = 6
	// warmOps untimed ops per process let the heap and caches reach
	// steady state.
	warmOps = 2
	// loopLimit caps the measuring loops of one run, so that a slow host
	// still exits in time with fewer than minOps ops.
	loopLimit = 140 * time.Second
	// A --trace 1 run alternates traceBlocks untraced and traced blocks;
	// untracedShare of each pair measures the untraced p50 that the
	// tracing overhead compares against.
	traceBlocks   = 4
	untracedShare = 0.4
	// blockMinOps is the op floor of each block.
	blockMinOps = 5
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measuring time")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	child := fs.Bool("child", false, "measure one process's share of an untraced run and print its ops (used by the parent run)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds > 0, --trace 0|1 and no arguments")
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	switch {
	case *child:
		err = measureShare(w, *seed, d, stdout)
	case *trace == 0:
		res, err = endToEnd(w, *seed, d, stderr)
	default:
		res, err = perLayer(w, *seed, d, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *child {
		return 0
	}
	// Marshalling strings and numbers cannot fail.
	host, _ := json.Marshal(map[string]any{"host": hostFacts(), "workload": w.name, "seed": *seed, "trace": *trace})
	fmt.Fprintln(stdout, string(host))
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// share is one child process's part of an untraced run.
type share struct {
	Warm, Ops  []op   // untimed warm-up ops, then timed ops
	AllocBytes uint64 // heap bytes allocated during the timed ops
	Mallocs    uint64 // heap objects allocated during the timed ops
	PeakRSSMB  float64
	SetupErr   string // a failed set-up check; empty when all passed
}

// measureShare is a child process: it sets up, measures its share of the
// run and prints the share as JSON.
func measureShare(w *workload, seed int64, d time.Duration, stdout io.Writer) error {
	b, err := newBench(w, seed)
	if err != nil {
		return err
	}
	var s share
	if b.setupErr != nil {
		s.SetupErr = b.setupErr.Error()
	}
	s.Warm = b.loop(0, warmOps, loopLimit/procs)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s.Ops = b.loop(d, (minOps+procs-1)/procs, loopLimit/procs)
	runtime.ReadMemStats(&m1)
	s.AllocBytes, s.Mallocs = m1.TotalAlloc-m0.TotalAlloc, m1.Mallocs-m0.Mallocs
	s.PeakRSSMB = peakRSSMB()
	return json.NewEncoder(stdout).Encode(s)
}

// endToEnd runs procs child processes one after another, each for its
// share of d, and derives the end-to-end metrics from their pooled ops.
func endToEnd(w *workload, seed int64, d time.Duration, stderr io.Writer) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var all, timed []op
	var allocBytes, mallocs uint64
	var rss []float64
	setupOK := true
	for i := 0; i < procs; i++ {
		cmd := exec.Command(self, "--child", "--workload", w.name,
			"--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(d.Seconds()/procs, 'g', -1, 64))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return result{}, fmt.Errorf("child process %d: %w", i, err)
		}
		var s share
		if err := json.Unmarshal(out, &s); err != nil {
			return result{}, fmt.Errorf("child process %d: %w", i, err)
		}
		if s.SetupErr != "" {
			fmt.Fprintln(stderr, "perfbench:", s.SetupErr)
			setupOK = false
		}
		all = append(append(all, s.Warm...), s.Ops...)
		timed = append(timed, s.Ops...)
		allocBytes += s.AllocBytes
		mallocs += s.Mallocs
		rss = append(rss, s.PeakRSSMB)
	}
	if len(timed) == 0 {
		return result{}, errors.New("no timed ops")
	}
	reportFailures(stderr, all)
	return result{
		Correct:   setupOK && failures(all) == 0,
		Attempted: len(all),
		Failed:    failures(all),
		Metrics:   summarize(all, timed, allocBytes, mallocs, quantile(rss, 0.5)),
	}, nil
}

// reportFailures prints the first few op errors.
func reportFailures(w io.Writer, ops []op) {
	shown := 0
	for i, o := range ops {
		if o.Err != "" && shown < 5 {
			fmt.Fprintf(w, "perfbench: op %d failed: %s\n", i, o.Err)
			shown++
		}
	}
}

// summarize derives the end-to-end metrics from all attempted ops, the
// timed ones among them, the heap bytes and objects allocated while the
// timed ops ran, and the median of the processes' peak RSS. timed must be
// non-empty.
func summarize(all, timed []op, allocBytes, mallocs uint64, peakRSS float64) map[string]metric {
	total := millis(timed, op.total)
	p50 := quantile(total, 0.5)
	var msgs uint64
	for _, o := range timed {
		msgs += o.Msgs
	}
	return map[string]metric{
		"run_ms.p50":          {p50, "ms"},
		"run_ms.p90":          {quantile(total, 0.9), "ms"},
		"msgs_per_s":          {ratio(float64(msgs)/float64(len(timed)), p50/1e3), "1/s"},
		"setup_s":             {quantile(millis(timed, func(o op) time.Duration { return o.Setup }), 0.5) / 1e3, "s"},
		"alloc_bytes_per_msg": {ratio(float64(allocBytes), float64(msgs)), "B"},
		"allocs_per_msg":      {ratio(float64(mallocs), float64(msgs)), "count"},
		"peak_rss_mb":         {peakRSS, "MB"},
		"ops_ok_frac":         {1 - float64(failures(all))/float64(len(all)), "ratio"},
	}
}

// runtime/metrics samples read around the traced phase.
var rtNames = [4]string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readRT() [4]float64 {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [4]float64
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		}
	}
	return out
}

// perLayer runs in one process. It alternates untraced and traced blocks,
// so that host drift affects both sides of the tracing overhead alike, and
// derives the per-layer metrics from the traced blocks.
func perLayer(w *workload, seed int64, d time.Duration, stderr io.Writer) (result, error) {
	b, err := newBench(w, seed)
	if err != nil {
		return result{}, err
	}
	if b.setupErr != nil {
		fmt.Fprintln(stderr, "perfbench:", b.setupErr)
	}
	all := b.loop(0, warmOps, loopLimit)
	var untraced, traced []op
	var samples []sample
	var rt [4]float64
	block := d / traceBlocks
	limit := loopLimit / (2 * traceBlocks)
	for i := 0; i < traceBlocks; i++ {
		untraced = append(untraced, b.loop(time.Duration(float64(block)*untracedShare), blockMinOps, limit)...)

		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return result{}, fmt.Errorf("cpu profile: %w", err)
		}
		rt0 := readRT()
		traced = append(traced, b.loop(time.Duration(float64(block)*(1-untracedShare)), blockMinOps, limit)...)
		rt1 := readRT()
		pprof.StopCPUProfile()
		s, err := parseProfile(prof.Bytes())
		if err != nil {
			return result{}, err
		}
		samples = append(samples, s...)
		for j := range rt {
			rt[j] += rt1[j] - rt0[j]
		}
	}
	last := -1
	for i, o := range traced {
		if o.Err == "" {
			last = i
		}
	}
	if last < 0 {
		return result{}, errors.New("no traced op succeeded")
	}
	all = append(append(all, untraced...), traced...)
	reportFailures(stderr, all)
	return result{
		Correct:   b.setupErr == nil && failures(all) == 0,
		Attempted: len(all),
		Failed:    failures(all),
		Metrics: layerMetrics(b, traced[last].rep, partitionOf(samples), rt,
			quantile(millis(untraced, op.total), 0.5), traced),
	}, nil
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// hostFacts describes the host a result was measured on.
func hostFacts() map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpu,
	}
}
