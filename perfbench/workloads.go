package main

import (
	"fmt"

	abcl "repro"
	"repro/internal/apps/hotkey"
	"repro/internal/apps/misc"
	"repro/internal/apps/nqueens"
	"repro/perfbench/programs"
)

// Workload sizes. Each op is one complete simulation of this input.
const (
	nqN         = 9   // Figure 5 N-queens board
	nqNodes     = 256 // processors
	nqStock     = 2   // chunk-stock depth
	nqSolutions = 352 // solutions of the 9-queens problem

	a2aNodes  = 128
	a2aRounds = 8

	hkNodes    = 64
	hkClients  = 64
	hkOps      = 200
	hkWritePct = 20
	hkDrop     = 0.02
	hkDup      = 0.01
	hkBatch    = 10 * abcl.Microsecond
	hkAckDelay = 50 * abcl.Microsecond

	// parWorkers is the Conservative executor's worker count for
	// alltoall-par2, the host's processor count when the workload was
	// sized. It is fixed, not read from the host, so that the workload is
	// the same everywhere.
	parWorkers = 2
)

// loader builds a System with the workload's options for one system seed
// and executor, and loads the program. check verifies the program's answer
// after Run.
type loader func(seed int64, exec abcl.ExecutorSpec) (sys *abcl.System, check func() error, err error)

// appRun is what every internal/apps runner returns about a run: the
// virtual completion time, the wire totals and every counter.
type appRun struct {
	elapsed       abcl.Time
	packets, msgs uint64
	counters      abcl.Counters
}

func appRunOf(r abcl.Report) appRun {
	return appRun{r.Sched.Elapsed, r.Wire.Packets, r.Wire.LogicalMsgs, r.Sched.Counters}
}

// workload is one benchmark input.
type workload struct {
	name string
	load loader
	exec abcl.ExecutorSpec
	// original runs the internal/apps version of the program sequentially.
	// Set-up requires it to agree with the loaded program's reference run.
	original func(seed int64) (appRun, error)
	// pinned is the digest of the sequential run at defaultSeed. A change of
	// virtual-time behaviour across commits fails every op on that seed.
	pinned string
}

// The workloads stress different layers, and each optimisation has one
// workload that exercises it and one that bypasses it.
var workloads = []*workload{
	// The paper's headline program: remote creation through the chunk
	// stock and delivery into fresh objects.
	{
		name:     "nqueens",
		load:     loadNQueens,
		exec:     abcl.Sequential(),
		original: originalNQueens,
		pinned:   "c2e940417a7160cf4a18cde8",
	},
	// The allocation-bound wire path, with no creation, no stock and no
	// reliable protocol.
	{
		name:     "alltoall",
		load:     loadAllToAll,
		exec:     abcl.Sequential(),
		original: originalAllToAll,
		pinned:   "500759ebbeb89b4d3b126eda",
	},
	// The alltoall input under the parallel window driver, which alltoall
	// bypasses: a driver change moves only this workload.
	{
		name:     "alltoall-par2",
		load:     loadAllToAll,
		exec:     abcl.Conservative(parWorkers),
		original: originalAllToAll,
		pinned:   "500759ebbeb89b4d3b126eda",
	},
	// The reliable path: acks, retransmit timers, dedup and batching over a
	// lossy wire, and core's multiactive and now-type blocking.
	{
		name:     "hotkey-lossy",
		load:     loadHotKey,
		exec:     abcl.Sequential(),
		original: originalHotKey,
		pinned:   "baf409922ce3d3a7892284a1",
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func loadNQueens(seed int64, exec abcl.ExecutorSpec) (*abcl.System, func() error, error) {
	sys, err := abcl.NewSystem(
		abcl.WithNodes(nqNodes),
		abcl.WithPlacement(abcl.PlaceRandom),
		abcl.WithSeed(seed),
		abcl.WithChunkStock(nqStock),
		abcl.WithExecutor(exec),
	)
	if err != nil {
		return nil, nil, err
	}
	d := nqueens.Build(sys, nqN, 0)
	d.Start()
	return sys, func() error {
		res, err := d.Result()
		if err != nil {
			return err
		}
		if res.Solutions != nqSolutions {
			return fmt.Errorf("nqueens: %d solutions, want %d", res.Solutions, nqSolutions)
		}
		return nil
	}, nil
}

func originalNQueens(seed int64) (appRun, error) {
	res, err := nqueens.Run(nqueens.Options{N: nqN, Nodes: nqNodes, Seed: seed, StockDepth: nqStock})
	if err != nil {
		return appRun{}, err
	}
	return appRunOf(res.Report), nil
}

func loadAllToAll(seed int64, exec abcl.ExecutorSpec) (*abcl.System, func() error, error) {
	sys, err := abcl.NewSystem(abcl.WithNodes(a2aNodes), abcl.WithSeed(seed), abcl.WithExecutor(exec))
	if err != nil {
		return nil, nil, err
	}
	return sys, programs.AllToAll(sys, a2aRounds), nil
}

func originalAllToAll(seed int64) (appRun, error) {
	res, err := misc.RunAllToAll(misc.AllToAllOptions{Nodes: a2aNodes, Rounds: a2aRounds, Opts: []abcl.Option{abcl.WithSeed(seed)}})
	if err != nil {
		return appRun{}, err
	}
	return appRun{res.Elapsed, res.Packets, res.Msgs, res.Stats}, nil
}

func hotkeyFaults() abcl.FaultPlan { return abcl.UniformFaults(hkDrop, hkDup, 0) }

func loadHotKey(seed int64, exec abcl.ExecutorSpec) (*abcl.System, func() error, error) {
	sys, err := abcl.NewSystem(
		abcl.WithNodes(hkNodes),
		abcl.WithSeed(seed),
		abcl.WithFaults(hotkeyFaults()),
		abcl.WithBatching(hkBatch, 0),
		abcl.WithReliable(),
		abcl.WithDelayedAcks(hkAckDelay),
		abcl.WithExecutor(exec),
	)
	if err != nil {
		return nil, nil, err
	}
	return sys, programs.HotKey(sys, hkClients, hkOps, hkWritePct), nil
}

func originalHotKey(seed int64) (appRun, error) {
	res, err := hotkey.Run(hotkey.Options{
		Nodes: hkNodes, Clients: hkClients, Ops: hkOps, WritePct: hkWritePct,
		Coverage: hotkey.CoverFull, Seed: seed, Faults: hotkeyFaults(),
		BatchWindow: hkBatch, AckDelay: hkAckDelay, Reliable: true,
	})
	if err != nil {
		return appRun{}, err
	}
	return appRunOf(res.Report), nil
}
