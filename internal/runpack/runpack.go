// Package runpack implements verifiable run artifacts: an integrity-checked
// archive (`runpack_<id>.zip`) that captures everything needed to reproduce
// one simulated run — the full configuration (workload, seed, fleet, fault
// schedule, comms and recovery options), the complete runtime event trace
// with its SHA-256 digest, the cost-attribution profile series, and the
// grouped Report — plus three operations over archives:
//
//   - Pack (Create): execute a configuration and emit the archive;
//   - Verify: re-execute the packed configuration and assert that the fresh
//     trace digest, Report JSON and workload answer are byte-identical,
//     reporting the first divergent trace event on failure;
//   - Diff: explain how two packs diverge — differing configuration fields,
//     the first differing trace event, and per-path/per-class cost deltas
//     from the profile sections.
//
// Archives double as CI regression tests: Regress re-verifies every pack
// under a directory (testdata/runpacks in this repository), so a determinism
// regression fails the build with a pinpointed first-divergent event instead
// of a vague flake. Packs are written deterministically (fixed zip metadata,
// content-derived id), so packing the same configuration twice produces
// byte-identical archives.
package runpack

import (
	"archive/zip"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/scenario"
)

// Format identifies the archive layout; bump on incompatible changes.
const Format = "abcl-runpack/1"

// Section names inside the archive.
const (
	SecManifest = "manifest.json"
	SecConfig   = "config.json"
	SecScenario = "scenario.json"
	SecTrace    = "trace.jsonl"
	SecProfile  = "profile.jsonl"
	SecReport   = "report.json"
)

// Crash mirrors abcl.NodeCrash in JSON-friendly form.
type Crash struct {
	Node           int   `json:"node"`
	AtNs           int64 `json:"at_ns"`
	RestartAfterNs int64 `json:"restart_after_ns"`
}

// RunConfig is the complete, replayable configuration of one run: together
// with the runtime's determinism guarantee (same seed ⇒ byte-identical
// traces) it pins every byte of the packed trace and report. Field
// conventions follow the abclsim flags: zero values select the workload
// defaults, Stock -1 disables the chunk stock.
type RunConfig struct {
	Workload  string `json:"workload"`
	Nodes     int    `json:"nodes,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	Policy    string `json:"policy,omitempty"`    // "" | "stack" | "naive"
	Placement string `json:"placement,omitempty"` // "" | "random" | "rr" | "local" | "load" | "depth"
	Stock     int    `json:"stock,omitempty"`     // chunk-stock depth; -1 disables

	// Workload parameters (each workload reads its own).
	N         int    `json:"n,omitempty"`          // nqueens board size
	Depth     int    `json:"depth,omitempty"`      // forkjoin tree depth
	Grid      int    `json:"grid,omitempty"`       // diffusion grid edge
	GridIters int    `json:"grid_iters,omitempty"` // diffusion iterations
	Scatter   bool   `json:"scatter,omitempty"`    // diffusion: scatter placement (default block)
	Iters     int    `json:"iters,omitempty"`      // pingpong iterations
	Clients   int    `json:"clients,omitempty"`    // hotkey/orderbook clients
	Ops       int    `json:"ops,omitempty"`        // hotkey/orderbook ops per client
	WritePct  int    `json:"write_pct,omitempty"`  // hotkey write percentage
	Coverage  string `json:"coverage,omitempty"`   // hotkey: none | partial | full
	Ungrouped bool   `json:"ungrouped,omitempty"`  // orderbook: drop the compatibility groups
	Reorder   int    `json:"reorder,omitempty"`    // bounded-reordering annotation

	// Fault schedule.
	Drop     float64 `json:"drop,omitempty"`
	Dup      float64 `json:"dup,omitempty"`
	JitterNs int64   `json:"jitter_ns,omitempty"`
	Crashes  []Crash `json:"crashes,omitempty"`

	// Wire-path, recovery and execution options.
	BatchWindowNs  int64 `json:"batch_window_ns,omitempty"`
	BatchBytes     int   `json:"batch_bytes,omitempty"`
	AckDelayNs     int64 `json:"ack_delay_ns,omitempty"`
	Reliable       bool  `json:"reliable,omitempty"`
	NoLocCache     bool  `json:"no_loc_cache,omitempty"`
	CkptIntervalNs int64 `json:"checkpoint_interval_ns,omitempty"`
	// Executor selects a parallel engine to cross-check at pack time:
	// "conservative" or "optimistic" (with Workers lanes) re-runs the
	// configuration on that executor and compares its Report against the
	// instrumented sequential run. The trace itself is always captured
	// sequentially — parallel windows have no single global interleaving
	// to observe. "" or "sequential" packs without a cross-check.
	Executor string `json:"executor,omitempty"`
	Workers  int    `json:"workers,omitempty"`
	// OptimisticWindowNs overrides the Time Warp speculation window for
	// the optimistic executor (0 selects the adaptive default).
	OptimisticWindowNs int64 `json:"optimistic_window_ns,omitempty"`
	// ParallelSim is the deprecated spelling of Executor "conservative"
	// with Workers = ParallelSim; old packs keep verifying unchanged.
	ParallelSim int `json:"parallel_sim,omitempty"`
	// ProfileWindowNs slices the packed profile into a time series.
	ProfileWindowNs int64 `json:"profile_window_ns,omitempty"`

	// Scenario is the embedded spec when Workload == "scenario"; it is
	// stored in its own archive section, not inside config.json.
	Scenario *scenario.Spec `json:"-"`
}

// ExecutorKind normalizes the configured executor name, folding the
// deprecated parallel_sim alias into "conservative". The zero
// configuration is "sequential" (pack without a cross-check).
func (c RunConfig) ExecutorKind() string {
	if c.Executor != "" {
		return c.Executor
	}
	if c.ParallelSim > 1 {
		return "conservative"
	}
	return "sequential"
}

// ExecutorWorkers is the lane count of the cross-check executor (0 when
// no parallel executor is configured).
func (c RunConfig) ExecutorWorkers() int {
	if c.ExecutorKind() == "sequential" {
		return 0
	}
	if c.Workers > 0 {
		return c.Workers
	}
	return c.ParallelSim
}

// ParallelConfigured reports whether the pack cross-checks a parallel
// executor at build and verify time.
func (c RunConfig) ParallelConfigured() bool {
	return c.ExecutorWorkers() > 1
}

// Validate rejects configurations Execute cannot replay.
func (c RunConfig) Validate() error {
	var errs []error
	kind := c.ExecutorKind()
	parallel := c.ParallelConfigured()
	switch c.Workload {
	case "nqueens", "pingpong", "forkjoin", "diffusion", "hotkey", "orderbook":
		if c.Scenario != nil {
			errs = append(errs, fmt.Errorf("runpack: workload %q must not embed a scenario spec", c.Workload))
		}
	case "scenario":
		if c.Scenario == nil {
			errs = append(errs, fmt.Errorf("runpack: scenario workload needs an embedded spec"))
		} else {
			if err := c.Scenario.Validate(); err != nil {
				errs = append(errs, err)
			}
			if c.Scenario.ParallelConfigured() {
				errs = append(errs, fmt.Errorf("runpack: scenario packs run sequentially (drop the spec's executor)"))
			}
		}
		if parallel {
			errs = append(errs, fmt.Errorf("runpack: scenario packs run sequentially (drop the executor)"))
		}
	default:
		errs = append(errs, fmt.Errorf("runpack: unknown workload %q", c.Workload))
	}
	switch kind {
	case "sequential", "conservative", "optimistic":
	default:
		errs = append(errs, fmt.Errorf("runpack: unknown executor %q", c.Executor))
	}
	if c.Executor != "" && c.ParallelSim > 1 {
		errs = append(errs, fmt.Errorf("runpack: executor and the deprecated parallel_sim are mutually exclusive"))
	}
	if c.Workers > 1 && kind == "sequential" {
		errs = append(errs, fmt.Errorf("runpack: workers requires a parallel executor"))
	}
	if c.OptimisticWindowNs != 0 && kind != "optimistic" {
		errs = append(errs, fmt.Errorf("runpack: optimistic_window_ns requires the optimistic executor"))
	}
	if c.Workload == "pingpong" && parallel {
		errs = append(errs, fmt.Errorf("runpack: pingpong packs run sequentially (drop the executor)"))
	}
	switch c.Policy {
	case "", "stack", "naive":
	default:
		errs = append(errs, fmt.Errorf("runpack: unknown policy %q", c.Policy))
	}
	switch c.Placement {
	case "", "random", "rr", "local", "load", "depth":
	default:
		errs = append(errs, fmt.Errorf("runpack: unknown placement %q", c.Placement))
	}
	return errors.Join(errs...)
}

// SectionSum records one section's integrity digest.
type SectionSum struct {
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// Manifest is the archive's integrity record: the format tag, the
// content-derived pack id, the headline trace digest, and a SHA-256 sum for
// every section. Open re-hashes each section against it.
type Manifest struct {
	Format   string `json:"format"`
	ID       string `json:"id"`
	Workload string `json:"workload"`
	// TraceEvents and TraceSHA256 summarize the trace section: the digest
	// that Verify re-derives by re-executing the configuration.
	TraceEvents int    `json:"trace_events"`
	TraceSHA256 string `json:"trace_sha256"`
	// ParallelChecked records that a parallel executor's Report was
	// cross-checked against the sequential run at pack time; Executor
	// names the strategy that was checked (e.g. "conservative(4)").
	ParallelChecked bool                  `json:"parallel_checked,omitempty"`
	Executor        string                `json:"executor,omitempty"`
	Sections        map[string]SectionSum `json:"sections"`
}

// Pack is one archive, opened or freshly built.
type Pack struct {
	Manifest Manifest
	Config   RunConfig
	// TraceJSONL is the full runtime event stream (one JSON object per
	// line); ReportJSON the canonical report document (see ExecResult);
	// ProfileJSONL the profile series derived from the report.
	TraceJSONL   []byte
	ReportJSON   []byte
	ProfileJSONL []byte
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// sections returns the archive payload (everything but the manifest).
func (p *Pack) sections() (map[string][]byte, error) {
	cfg, err := json.MarshalIndent(p.Config, "", "  ")
	if err != nil {
		return nil, err
	}
	secs := map[string][]byte{
		SecConfig:  append(cfg, '\n'),
		SecTrace:   p.TraceJSONL,
		SecProfile: p.ProfileJSONL,
		SecReport:  p.ReportJSON,
	}
	if p.Config.Scenario != nil {
		sp, err := json.MarshalIndent(p.Config.Scenario, "", "  ")
		if err != nil {
			return nil, err
		}
		secs[SecScenario] = append(sp, '\n')
	}
	return secs, nil
}

// seal computes the manifest from the current sections. The pack id is
// derived from the section digests alone, so identical content ⇒ identical
// id, regardless of where or when the pack was written.
func (p *Pack) seal() error {
	secs, err := p.sections()
	if err != nil {
		return err
	}
	m := Manifest{
		Format:          Format,
		Workload:        p.Config.Workload,
		TraceEvents:     bytes.Count(p.TraceJSONL, []byte{'\n'}),
		TraceSHA256:     sum(p.TraceJSONL),
		ParallelChecked: p.Manifest.ParallelChecked,
		Executor:        p.Manifest.Executor,
		Sections:        make(map[string]SectionSum, len(secs)),
	}
	names := make([]string, 0, len(secs))
	for name, b := range secs {
		m.Sections[name] = SectionSum{SHA256: sum(b), Bytes: int64(len(b))}
		names = append(names, name)
	}
	sort.Strings(names)
	id := sha256.New()
	for _, name := range names {
		fmt.Fprintf(id, "%s:%s\n", name, m.Sections[name].SHA256)
	}
	m.ID = hex.EncodeToString(id.Sum(nil))[:12]
	p.Manifest = m
	return nil
}

// DefaultName is the canonical file name of a sealed pack.
func (p *Pack) DefaultName() string { return "runpack_" + p.Manifest.ID + ".zip" }

// WriteFile seals the pack and writes the archive. A directory path (or a
// path ending in a separator) selects the canonical runpack_<id>.zip name
// inside it; the final path is returned. Output is deterministic: fixed zip
// metadata, sections in fixed order.
func (p *Pack) WriteFile(path string) (string, error) {
	if err := p.seal(); err != nil {
		return "", err
	}
	if st, err := os.Stat(path); (err == nil && st.IsDir()) || strings.HasSuffix(path, string(os.PathSeparator)) {
		path = filepath.Join(path, p.DefaultName())
	}
	secs, err := p.sections()
	if err != nil {
		return "", err
	}
	man, err := json.MarshalIndent(p.Manifest, "", "  ")
	if err != nil {
		return "", err
	}
	secs[SecManifest] = append(man, '\n')

	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	order := []string{SecManifest, SecConfig, SecScenario, SecTrace, SecProfile, SecReport}
	for _, name := range order {
		b, ok := secs[name]
		if !ok {
			continue
		}
		w, err := zw.CreateHeader(&zip.FileHeader{Name: name, Method: zip.Deflate})
		if err != nil {
			return "", err
		}
		if _, err := w.Write(b); err != nil {
			return "", err
		}
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	return path, os.WriteFile(path, buf.Bytes(), 0o644)
}

// Open reads an archive and checks its integrity: the format tag, every
// section's SHA-256 sum, and the content-derived id must all match the
// manifest. A pack that fails here is corrupt or hand-edited — distinct
// from a pack that fails Verify, which is intact but no longer reproducible.
func Open(path string) (*Pack, error) {
	zr, err := zip.OpenReader(path)
	if err != nil {
		return nil, fmt.Errorf("runpack %s: %w", path, err)
	}
	defer zr.Close()
	raw := make(map[string][]byte, len(zr.File))
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			return nil, fmt.Errorf("runpack %s: %s: %w", path, f.Name, err)
		}
		b, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, fmt.Errorf("runpack %s: %s: %w", path, f.Name, err)
		}
		raw[f.Name] = b
	}
	manBytes, ok := raw[SecManifest]
	if !ok {
		return nil, fmt.Errorf("runpack %s: no %s section", path, SecManifest)
	}
	p := &Pack{}
	if err := json.Unmarshal(manBytes, &p.Manifest); err != nil {
		return nil, fmt.Errorf("runpack %s: %s: %w", path, SecManifest, err)
	}
	if p.Manifest.Format != Format {
		return nil, fmt.Errorf("runpack %s: format %q, want %q", path, p.Manifest.Format, Format)
	}
	for name, want := range p.Manifest.Sections {
		b, ok := raw[name]
		if !ok {
			return nil, fmt.Errorf("runpack %s: integrity: section %s missing", path, name)
		}
		if got := sum(b); got != want.SHA256 {
			return nil, fmt.Errorf("runpack %s: integrity: section %s sha256 %s, manifest says %s", path, name, got[:12], want.SHA256[:12])
		}
	}
	for name := range raw {
		if name == SecManifest {
			continue
		}
		if _, ok := p.Manifest.Sections[name]; !ok {
			return nil, fmt.Errorf("runpack %s: integrity: unmanifested section %s", path, name)
		}
	}
	if err := json.Unmarshal(raw[SecConfig], &p.Config); err != nil {
		return nil, fmt.Errorf("runpack %s: %s: %w", path, SecConfig, err)
	}
	if sp, ok := raw[SecScenario]; ok {
		p.Config.Scenario = &scenario.Spec{}
		if err := json.Unmarshal(sp, p.Config.Scenario); err != nil {
			return nil, fmt.Errorf("runpack %s: %s: %w", path, SecScenario, err)
		}
	}
	p.TraceJSONL = raw[SecTrace]
	p.ProfileJSONL = raw[SecProfile]
	p.ReportJSON = raw[SecReport]
	// Re-derive the id from the (now authenticated) sections; a mismatch
	// means the manifest itself was edited.
	want := p.Manifest.ID
	if err := p.seal(); err != nil {
		return nil, err
	}
	if p.Manifest.ID != want {
		return nil, fmt.Errorf("runpack %s: integrity: id %s, recomputed %s", path, want, p.Manifest.ID)
	}
	return p, nil
}

// Build assembles a sealed pack from a configuration and its execution.
func Build(cfg RunConfig, res *ExecResult) (*Pack, error) {
	p := &Pack{
		Config:       cfg,
		TraceJSONL:   res.Trace,
		ReportJSON:   res.ReportJSON,
		ProfileJSONL: res.ProfileJSONL(),
	}
	p.Manifest.ParallelChecked = res.ParallelChecked
	p.Manifest.Executor = res.Executor
	return p, p.seal()
}

// Create executes the configuration and writes its archive; the final path
// and the sealed pack are returned.
func Create(cfg RunConfig, path string) (*Pack, string, error) {
	res, err := Execute(cfg)
	if err != nil {
		return nil, "", err
	}
	p, err := Build(cfg, res)
	if err != nil {
		return nil, "", err
	}
	out, err := p.WriteFile(path)
	return p, out, err
}
