package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	abcl "repro"
)

// Every Counters field, and every other report field the digest names,
// must change the digest: a counter added later cannot escape it.
func TestDigestCoversEveryCounter(t *testing.T) {
	var base abcl.Report
	seen := map[string]string{digest(base): "zero"}
	check := func(name string, r abcl.Report) {
		t.Helper()
		d := digest(r)
		if prev, ok := seen[d]; ok {
			t.Errorf("changing %s gives the digest of %s", name, prev)
		}
		seen[d] = name
	}
	v := reflect.ValueOf(&base.Sched.Counters).Elem()
	for i := 0; i < v.NumField(); i++ {
		r := base
		f := reflect.ValueOf(&r.Sched.Counters).Elem().Field(i)
		switch f.Kind() {
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(1)
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(1)
		default:
			t.Fatalf("Counters.%s has kind %s; teach this test to set it", v.Type().Field(i).Name, f.Kind())
		}
		check("Counters."+v.Type().Field(i).Name, r)
	}
	for name, set := range map[string]func(*abcl.Report){
		"Elapsed":           func(r *abcl.Report) { r.Sched.Elapsed = 1 },
		"TotalInstructions": func(r *abcl.Report) { r.Sched.TotalInstructions = 1 },
		"Packets":           func(r *abcl.Report) { r.Wire.Packets = 1 },
		"LogicalMsgs":       func(r *abcl.Report) { r.Wire.LogicalMsgs = 1 },
		"Bytes":             func(r *abcl.Report) { r.Wire.Bytes = 1 },
	} {
		r := base
		set(&r)
		check(name, r)
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"repro/internal/sim.(*Engine).RunUntil", "main.main"}, bucketSim},
		{[]string{"runtime.mapaccess2_fast64", "repro/internal/core.(*NodeRT).deliver", "repro/internal/sim.(*Engine).fire"}, bucketCore},
		{[]string{"runtime.memmove", "repro/internal/machine.(*Machine).Send.func1"}, bucketMachine},
		{[]string{"repro/internal/remote.(*Layer).SendMessage", "repro/internal/core.(*Ctx).SendPast"}, bucketRemote},
		{[]string{"repro/internal/apps/nqueens.validColumns", "repro/internal/core.(*NodeRT).invoke"}, bucketApps},
		{[]string{"repro/perfbench/programs.HotKey.func3", "repro/internal/core.(*NodeRT).invoke"}, bucketApps},
		{[]string{"repro.(*System).Run", "main.(*bench).do"}, bucketApps},
		{[]string{"repro/internal/stats.(*Counters).Add", "repro.(*System).Report"}, bucketOther},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "repro/internal/machine.(*Machine).Send"}, bucketAlloc},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.scanobject", "runtime.gcAssistAlloc1", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/core.newFrame"}, bucketGC},
		{[]string{"runtime.futex", "runtime.schedule"}, bucketOther},
		{[]string{"main.digest", "main.(*bench).do"}, bucketOther},
		{nil, bucketOther},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*NodeRT).deliver.func1": "repro/internal/core",
		"repro.(*System).Run":                         "repro",
		"runtime.memmove":                             "runtime",
		"main.main":                                   "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// The decoder reads a real CPU profile, and its partition covers every
// sample exactly once.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if len(s.stack) == 0 || s.nanos <= 0 || s.count <= 0 {
			t.Fatalf("malformed sample %+v", s)
		}
		// A test binary names package main by its import path.
		if strings.HasSuffix(s.stack[0], ".spin") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no sample has spin at its leaf among %d samples", len(samples))
	}
	p := partitionOf(samples)
	var sum float64
	for _, b := range buckets {
		sum += p.frac(b)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("cpu fractions sum to %v, want 1", sum)
	}
	if _, err := parseProfile(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

// A corrupted reference counts every op as failed and the benchmark still
// reports; a corrupted pin fails the set-up check and the ops on that seed.
func TestCorruptReferenceFailsOps(t *testing.T) {
	w := *workloads[0]
	b, err := newBench(&w, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if b.setupErr != nil {
		t.Fatal(b.setupErr)
	}
	b.ref = "corrupt"
	ops := b.loop(0, 2, time.Minute)
	if n := failures(ops); n != len(ops) {
		t.Fatalf("%d of %d ops failed against a corrupt reference", n, len(ops))
	}
	if !strings.Contains(ops[0].Err, "digest") {
		t.Errorf("op error %q does not name the digest", ops[0].Err)
	}
	m := summarize(ops, ops, 1, 1, 1)
	if got := m["ops_ok_frac"].Value; got != 0 {
		t.Errorf("ops_ok_frac = %v, want 0", got)
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s = %v", name, v.Value)
		}
	}

	w.pinned = "corrupt"
	b, err = newBench(&w, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if b.setupErr == nil {
		t.Error("a wrong pin passed the set-up check")
	}
	if o := b.do(); o.Err == "" {
		t.Error("op passed against a wrong pin")
	}
}

// Every workload sets up and passes its checks on the default seed and on
// a held-out seed; alltoall-par2 reproduces the sequential digest.
func TestWorkloadsPassOnTwoSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, seed := range []int64{defaultSeed, 7} {
			b, err := newBench(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			if b.setupErr != nil {
				t.Error(b.setupErr)
			}
			if o := b.do(); o.Err != "" {
				t.Errorf("%s seed %d: %s", w.name, seed, o.Err)
			}
		}
	}
	seq, _ := findWorkload("alltoall")
	par, _ := findWorkload("alltoall-par2")
	if seq.pinned != par.pinned {
		t.Errorf("alltoall-par2 pin %s differs from alltoall's %s", par.pinned, seq.pinned)
	}
}

// BENCHMARK.json at the repository root declares the workloads and metrics
// the benchmark prints; the two must name the same ones.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var declared []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(names, declared) {
		t.Errorf("workloads %v, BENCHMARK.json declares %v", names, declared)
	}
	ops := []op{{}}
	p := partition{nanos: map[string]int64{}, ticks: map[string]int64{}}
	for _, c := range []struct {
		kind     string
		printed  map[string]metric
		declared []struct{ Name, Unit string }
	}{
		{"end_to_end", summarize(ops, ops, 0, 0, 0), spec.EndToEnd},
		{"per_layer", layerMetrics(&bench{}, abcl.Report{}, p, [4]float64{}, 1, ops), spec.PerLayer},
	} {
		if len(c.printed) != len(c.declared) {
			t.Errorf("%s: prints %d metrics, BENCHMARK.json declares %d", c.kind, len(c.printed), len(c.declared))
		}
		for _, d := range c.declared {
			if m, ok := c.printed[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s (%s) declared, printed as %+v", c.kind, d.Name, d.Unit, m)
			}
		}
	}
}
