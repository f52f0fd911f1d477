// Package harness drives the paper's experiments: one registered
// experiment per table and figure of the evaluation (Figures 1-11,
// Tables 1-3) plus the ablations DESIGN.md calls out. Each experiment is
// a plan of declared cells (cells.go) whose typed result has a Render
// method producing the text report; cmd/jrs exposes them on the command
// line and bench_test.go regenerates them under `go test -bench`.
package harness

import (
	"context"
	"fmt"
	"sync/atomic"

	"jrs/internal/bytecode"
	"jrs/internal/core"
	"jrs/internal/jit"
	"jrs/internal/jit/codecache"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// defaultCodeCache, when set, is attached to every engine RunCtx builds
// whose Config does not name its own cache — the process-wide shared
// translation cache behind `jrs -codecache` and the code-cache grid
// benchmarks (the same process-default idiom as trace.BatchSize). Cells
// that need isolation (ablate-codecache) set Config.CodeCache explicitly
// and are unaffected.
var defaultCodeCache atomic.Pointer[codecache.Cache]

// engineRuns and simInstrs count every engine run RunClassesCtx
// finishes and the instructions it simulated, process-wide; coresTimed
// counts the distinct superscalar cores built to time those runs. The
// cell pins (testdata/golden/cells) record their deltas, so extra
// simulated work fails a test even when every payload stays the same.
var (
	engineRuns atomic.Int64
	simInstrs  atomic.Uint64
	coresTimed atomic.Int64
)

// SetCodeCache installs c as the process-default shared translation
// cache (nil removes it). Callers set it before starting a run; engines
// already built keep whatever they were built with.
func SetCodeCache(c *codecache.Cache) { defaultCodeCache.Store(c) }

// DefaultCodeCache returns the process-default shared translation cache,
// or nil.
func DefaultCodeCache() *codecache.Cache { return defaultCodeCache.Load() }

// Mode selects the execution style of a measured run.
type Mode int

// Execution modes.
const (
	// ModeInterp interprets everything (the paper's interpreter runs).
	ModeInterp Mode = iota
	// ModeJIT translates every method on first invocation (the paper's
	// JIT runs).
	ModeJIT
	// ModeAOT precompiles the whole program before measurement begins —
	// the C/C++-like comparator of Figure 4.
	ModeAOT
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeInterp:
		return "interp"
	case ModeJIT:
		return "jit"
	case ModeAOT:
		return "aot"
	}
	return "unknown"
}

// Options configures an experiment run.
type Options struct {
	// Scale overrides every workload's input size (0 = each workload's
	// default, the s1-like setting).
	Scale int
	// Workloads restricts the set (nil = the paper's seven, or eight
	// where hello participates).
	Workloads []workloads.Workload
	// Quick selects each workload's reduced benchmark scale (tests and
	// go-bench runs).
	Quick bool
	// CheckPipe attaches the pipeline invariant checker to every
	// superscalar core the experiments build (fig9/fig10,
	// ablate-interp-ilp, ablate-ooo); a violation fails the cell. Debug
	// aid — it roughly doubles pipeline-simulation cost, so hot runs
	// leave it off.
	CheckPipe bool
	// Races adds the static race and deadlock analysis to lint and
	// analyze reports (jrs lint -races / jrs analyze -races). Off by
	// default: race findings are opt-in so multithreaded workloads
	// don't fail plain lint runs on the analysis's conservatism.
	Races bool
	// Checks adds the provable runtime-check census (value-range and
	// nullness analysis) to lint and analyze reports (jrs lint
	// -checkelide / jrs analyze -checkelide). Off by default so the
	// plain report text stays byte-stable.
	Checks bool
}

func (o Options) seven() []workloads.Workload {
	if o.Workloads != nil {
		return o.Workloads
	}
	return workloads.Seven()
}

// RunCtx executes workload w at the scale under the mode, with the
// given extra sinks attached to the native trace, and returns the
// finished engine. The engine polls ctx on the instruction-budget path
// (cooperative cancellation), so a deadline or cancellation converts a
// hung or overlong simulation into an error instead of a stuck
// goroutine.
func RunCtx(ctx context.Context, w workloads.Workload, scale int, mode Mode, cfg core.Config, sinks ...trace.Sink) (*core.Engine, error) {
	return RunClassesCtx(ctx, w.Name, w.Classes(scale), mode, cfg, sinks...)
}

// RunClassesCtx is RunCtx over an already-compiled program — a
// workload's classes, or a class bundle written by cmd/mjc. name
// prefixes every error.
func RunClassesCtx(ctx context.Context, name string, classes []*bytecode.Class, mode Mode, cfg core.Config, sinks ...trace.Sink) (*core.Engine, error) {
	if ctx != nil && ctx.Done() != nil && cfg.Cancel == nil {
		cfg.Cancel = ctx.Err
	}
	if cfg.CodeCache == nil {
		cfg.CodeCache = defaultCodeCache.Load()
	}
	sw := &trace.Switchable{}
	measured := trace.Tee(sinks...)
	switch mode {
	case ModeInterp:
		if cfg.Policy == nil {
			cfg.Policy = core.InterpretOnly{}
		}
		sw.S = measured
	case ModeJIT:
		if cfg.Policy == nil {
			cfg.Policy = core.CompileFirst{}
		}
		sw.S = measured
	case ModeAOT:
		cfg.Policy = core.CompileFirst{}
		// Measurement attaches only after precompilation below.
	}
	cfg.Sink = sw

	e := core.New(cfg)
	if err := e.VM.Load(classes); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if mode == ModeAOT {
		if err := e.PrecompileAll(); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sw.S = measured
	}
	main, err := e.VM.LookupMain()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if err := e.Run(main); err != nil {
		return nil, fmt.Errorf("%s (%v): %w", name, mode, err)
	}
	engineRuns.Add(1)
	simInstrs.Add(e.TotalInstrs())
	return e, nil
}

// jitNoDevirt returns JIT options with virtual-call devirtualization off.
func jitNoDevirt() jit.Options {
	o := jit.DefaultOptions()
	o.Devirtualize = false
	return o
}
