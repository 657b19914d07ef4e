package runpack

import (
	"archive/zip"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// testConfigs are the acceptance matrix: a fault-free workload, a lossy
// batched scenario, a crash-recovery scenario, a conservative-executor run
// (in both the modern and the deprecated parallel_sim spelling), and an
// optimistic (Time Warp) run.
func testConfigs(t *testing.T) map[string]RunConfig {
	t.Helper()
	lossy, err := scenario.Find("nqueens-lossy-batched")
	if err != nil {
		t.Fatal(err)
	}
	crash, err := scenario.Find("nqueens-crash-recover")
	if err != nil {
		t.Fatal(err)
	}
	return map[string]RunConfig{
		"nqueens-plain":      {Workload: "nqueens", N: 6, Nodes: 8, Seed: 1},
		"scenario-lossy":     {Workload: "scenario", Scenario: &lossy},
		"scenario-crash":     {Workload: "scenario", Scenario: &crash},
		"hotkey-parallel":    {Workload: "hotkey", Nodes: 8, Clients: 4, Ops: 10, Seed: 1, ParallelSim: 4},
		"hotkey-cons":        {Workload: "hotkey", Nodes: 8, Clients: 4, Ops: 10, Seed: 1, Executor: "conservative", Workers: 4},
		"hotkey-optimistic":  {Workload: "hotkey", Nodes: 8, Clients: 4, Ops: 10, Seed: 1, Executor: "optimistic", Workers: 4},
		"nqueens-optimistic": {Workload: "nqueens", N: 6, Nodes: 8, Seed: 1, Executor: "optimistic", Workers: 4, CkptIntervalNs: 40_000},
	}
}

// TestRoundTrip packs each acceptance configuration, reopens the archive,
// and verifies it: the re-execution must reproduce the packed trace, report
// and answer byte-for-byte. Packing the same configuration twice must also
// produce byte-identical archives (deterministic zip output).
func TestRoundTrip(t *testing.T) {
	for name, cfg := range testConfigs(t) {
		cfg := cfg
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := t.TempDir()
			p, path, err := Create(cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.ParallelConfigured() {
				if !p.Manifest.ParallelChecked {
					t.Error("parallel run was not cross-checked")
				}
				if want := cfg.ExecutorKind(); !strings.HasPrefix(p.Manifest.Executor, want) {
					t.Errorf("manifest executor %q, want %s(…)", p.Manifest.Executor, want)
				}
			}
			reopened, err := Open(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if reopened.Manifest.ID != p.Manifest.ID {
				t.Fatalf("reopened id %s != packed %s", reopened.Manifest.ID, p.Manifest.ID)
			}
			v, err := Verify(reopened)
			if err != nil {
				t.Fatal(err)
			}
			if !v.OK {
				t.Fatalf("verify failed: %v", v.Mismatches)
			}
			// Determinism: a second pack of the same config is byte-identical.
			_, path2, err := Create(cfg, filepath.Join(dir, "again"))
			if err != nil {
				t.Fatal(err)
			}
			b1, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := os.ReadFile(path2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Error("packing the same configuration twice produced different archives")
			}
		})
	}
}

// TestVerifyNamesFirstDivergentEvent perturbs a packed trace (resealing the
// manifest, so the archive itself stays intact) and asserts Verify fails
// naming exactly the perturbed event.
func TestVerifyNamesFirstDivergentEvent(t *testing.T) {
	cfg := RunConfig{Workload: "nqueens", N: 5, Nodes: 4, Seed: 1}
	res, err := Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(p.TraceJSONL), "\n")
	if len(lines) < 4 {
		t.Fatalf("trace too short to perturb: %d lines", len(lines))
	}
	lines[2] = strings.Replace(lines[2], `"at":`, `"at":9`, 1) // event #3
	p.TraceJSONL = []byte(strings.Join(lines, ""))

	path, err := p.WriteFile(filepath.Join(t.TempDir(), "perturbed.zip"))
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatalf("a resealed perturbed pack must still open: %v", err)
	}
	v, err := Verify(reopened)
	if err != nil {
		t.Fatal(err)
	}
	if v.OK {
		t.Fatal("perturbed pack passed verification")
	}
	if v.TraceDivergence == nil {
		t.Fatal("no trace divergence reported")
	}
	if v.TraceDivergence.Event != 3 {
		t.Errorf("first divergent event = %d, want 3", v.TraceDivergence.Event)
	}
	sum := v.Summary(reopened)
	if !strings.Contains(sum, "first divergent trace event (#3)") {
		t.Errorf("summary does not name the divergent event:\n%s", sum)
	}
}

// TestOpenRejectsTampering rewrites one section's bytes without resealing:
// Open must refuse the archive (integrity failure, not a verify failure).
func TestOpenRejectsTampering(t *testing.T) {
	_, path, err := Create(RunConfig{Workload: "nqueens", N: 5, Nodes: 4, Seed: 1}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	zr, err := zip.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := filepath.Join(t.TempDir(), "tampered.zip")
	out, err := os.Create(tampered)
	if err != nil {
		t.Fatal(err)
	}
	zw := zip.NewWriter(out)
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(rc); err != nil {
			t.Fatal(err)
		}
		rc.Close()
		b := buf.Bytes()
		if f.Name == SecTrace {
			b = bytes.Replace(b, []byte(`"at":`), []byte(`"at":7`), 1)
		}
		w, err := zw.Create(f.Name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	zr.Close()
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(tampered); err == nil {
		t.Fatal("Open accepted a tampered archive")
	} else if !strings.Contains(err.Error(), "integrity") {
		t.Errorf("tampering error does not mention integrity: %v", err)
	}
}

// TestDiff packs two configurations differing in one knob and asserts the
// diff reports the config delta and a first divergent trace event.
func TestDiff(t *testing.T) {
	dir := t.TempDir()
	a, _, err := Create(RunConfig{Workload: "nqueens", N: 5, Nodes: 4, Seed: 1}, dir)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Create(RunConfig{Workload: "nqueens", N: 6, Nodes: 4, Seed: 1}, filepath.Join(dir, "b"))
	if err != nil {
		t.Fatal(err)
	}
	d := Diff(a, b)
	if d.Identical {
		t.Fatal("different configs reported identical")
	}
	found := false
	for _, c := range d.ConfigDeltas {
		if strings.HasPrefix(c, "n: ") {
			found = true
		}
	}
	if !found {
		t.Errorf("config deltas missed the board size: %v", d.ConfigDeltas)
	}
	if d.TraceDivergence == nil {
		t.Error("no trace divergence between different runs")
	}
	if d.AnswerA == d.AnswerB {
		t.Error("answers should differ between N=5 and N=6")
	}
	if len(d.PathDeltas) == 0 {
		t.Error("no per-path cost deltas between different runs")
	}
	same := Diff(a, a)
	if !same.Identical {
		t.Error("a pack diffed against itself is not identical")
	}
}

// TestRegress exercises the directory gate: all-good passes, one perturbed
// pack fails the run and is named in the error.
func TestRegress(t *testing.T) {
	dir := t.TempDir()
	cfg := RunConfig{Workload: "nqueens", N: 5, Nodes: 4, Seed: 1}
	if _, _, err := Create(cfg, dir); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := Regress(dir, &out); err != nil {
		t.Fatalf("all-good regress failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1/1 packs reproduced") {
		t.Errorf("regress summary missing:\n%s", out.String())
	}

	// Add a perturbed-but-resealed pack: it opens fine but fails Verify.
	res, err := Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Build(cfg, res)
	if err != nil {
		t.Fatal(err)
	}
	p.TraceJSONL = bytes.Replace(p.TraceJSONL, []byte(`"at":`), []byte(`"at":5`), 1)
	if _, err := p.WriteFile(filepath.Join(dir, "zz_bad.zip")); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = Regress(dir, &out)
	if err == nil {
		t.Fatalf("regress passed with a perturbed pack:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "zz_bad.zip") {
		t.Errorf("regress error does not name the failing pack: %v", err)
	}
}

// TestValidateRejections pins the configuration validator's error cases.
func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		cfg  RunConfig
		want string
	}{
		{"unknown workload", RunConfig{Workload: "quicksort"}, "unknown workload"},
		{"scenario without spec", RunConfig{Workload: "scenario"}, "needs an embedded spec"},
		{"spec outside scenario", RunConfig{Workload: "nqueens", Scenario: &scenario.Spec{}}, "must not embed"},
		{"parallel pingpong", RunConfig{Workload: "pingpong", ParallelSim: 4}, "sequentially"},
		{"optimistic pingpong", RunConfig{Workload: "pingpong", Executor: "optimistic", Workers: 4}, "sequentially"},
		{"unknown executor", RunConfig{Workload: "nqueens", Executor: "timewarp", Workers: 4}, "unknown executor"},
		{"both spellings", RunConfig{Workload: "nqueens", Executor: "conservative", Workers: 4, ParallelSim: 4}, "mutually exclusive"},
		{"workers sequential", RunConfig{Workload: "nqueens", Workers: 4}, "requires a parallel executor"},
		{"window without optimistic", RunConfig{Workload: "nqueens", Executor: "conservative", Workers: 4, OptimisticWindowNs: 100}, "requires the optimistic executor"},
		{"bad policy", RunConfig{Workload: "nqueens", Policy: "fifo"}, "unknown policy"},
		{"bad placement", RunConfig{Workload: "nqueens", Placement: "hash"}, "unknown placement"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.want)
		}
	}
	// Every executor accepts checkpoints and crash plans.
	for _, cfg := range []RunConfig{
		{Workload: "nqueens", ParallelSim: 4, CkptIntervalNs: 100, Crashes: []Crash{{Node: 1, AtNs: 5, RestartAfterNs: 5}}},
		{Workload: "nqueens", Executor: "conservative", Workers: 4, CkptIntervalNs: 100},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v: want valid, got %v", cfg, err)
		}
	}
}
