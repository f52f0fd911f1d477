package harness

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"jrs/internal/core"
	"jrs/internal/pipeline"
	"jrs/internal/trace"
)

// coreCounterConfigs is a matrix of out-of-order cores that makes every
// resource bind somewhere: widths 1/2/4/8 × 1/2/4/16 reservation
// stations per class × memory speculation on and off, plus per width a
// starved core (8-entry ROB, 3 stations, 4-entry LSQ) and a default
// core, both behind the target-cache front end.
func coreCounterConfigs() []pipeline.Config {
	var cfgs []pipeline.Config
	for _, width := range []int{1, 2, 4, 8} {
		for _, rs := range []int{1, 2, 4, 16} {
			for _, spec := range []bool{true, false} {
				cfg := pipeline.DefaultConfig(width)
				cfg.RSPerClass, cfg.MemSpeculate = rs, spec
				cfgs = append(cfgs, cfg)
			}
		}
		starved := pipeline.DefaultConfig(width)
		starved.ROBSize, starved.RSPerClass, starved.LSQSize = 8, 3, 4
		starved.TargetCache = true
		tc := pipeline.DefaultConfig(width)
		tc.TargetCache = true
		cfgs = append(cfgs, starved, tc)
	}
	return cfgs
}

// TestCoreCountersGolden pins the out-of-order core's six exact
// counters (not IPC at two decimals, as the fig9 golden does) for the
// whole config matrix on four workloads under every engine. The
// invariant checker rides along on the width-4 cores, which keeps the
// test under fifteen seconds. Any change to the scheduler's timing shows up here
// as a changed integer. Refresh with:
//
//	go test ./internal/harness -run TestCoreCountersGolden -update
func TestCoreCountersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload simulation")
	}
	var b strings.Builder
	for _, name := range []string{"hello", "jess", "javac", "mtrt"} {
		w := mustWorkload(t, name)
		for _, mode := range []Mode{ModeInterp, ModeJIT, ModeAOT} {
			var cores []*pipeline.Core
			var checks []*pipeline.Checker
			var sinks []trace.Sink
			for _, cfg := range coreCounterConfigs() {
				c := pipeline.New(cfg)
				if cfg.IssueWidth == 4 {
					checks = append(checks, c.Check())
				}
				cores = append(cores, c)
				sinks = append(sinks, c)
			}
			if _, err := RunCtx(context.Background(), w, 2, mode, core.Config{}, sinks...); err != nil {
				t.Fatal(err)
			}
			for _, chk := range checks {
				if err := chk.Err(); err != nil {
					t.Fatalf("%s/%v: %v", name, mode, err)
				}
			}
			for _, c := range cores {
				cfg := c.Config()
				fmt.Fprintf(&b, "%s/%v w=%d rob=%d rs=%d lsq=%d spec=%t tc=%t: instrs=%d cycles=%d mispredicts=%d squash=%d forwards=%d replays=%d\n",
					name, mode, cfg.IssueWidth, cfg.ROBSize, cfg.RSPerClass, cfg.LSQSize, cfg.MemSpeculate, cfg.TargetCache,
					c.Instrs, c.Cycles(), c.Mispredicts, c.SquashCycles, c.MemForwards, c.MemReplays)
			}
		}
	}
	checkGolden(t, "core-counters.txt", b.String())
}

// TestOoOGroupFrontEnds checks that the OoO experiments share front
// ends: fig9's four widths run on one, ablate-interp-ilp's BTB and
// target-cache cores on two.
func TestOoOGroupFrontEnds(t *testing.T) {
	widths := []int{1, 2, 4, 8}
	if n := pipeline.NewGroup(fig9Configs(widths)...).FrontEnds(); n != 1 {
		t.Errorf("fig9 builds %d front ends, want 1", n)
	}
	if n := pipeline.NewGroup(interpILPConfigs(widths)...).FrontEnds(); n != 2 {
		t.Errorf("ablate-interp-ilp builds %d front ends, want 2", n)
	}
}

// TestOddSizeCoreCountersGolden pins the six exact counters of cores
// whose ROB and LSQ sizes are not powers of two (ROB 1/5/96 × LSQ
// 1/3/24 × memory speculation on and off, 3 stations per class, widths
// 2 and 8) on the first 1<<17 instructions of jess at scale 2 under
// the interpreter and the JIT, timed as one group with the checker on
// every core. Refresh with:
//
//	go test ./internal/harness -run TestOddSizeCoreCountersGolden -update
func TestOddSizeCoreCountersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("workload simulation")
	}
	var cfgs []pipeline.Config
	for _, width := range []int{2, 8} {
		for _, rob := range []int{1, 5, 96} {
			for _, lsq := range []int{1, 3, 24} {
				for _, spec := range []bool{true, false} {
					cfg := pipeline.DefaultConfig(width)
					cfg.ROBSize, cfg.RSPerClass, cfg.LSQSize, cfg.MemSpeculate = rob, 3, lsq, spec
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	var b strings.Builder
	for _, mode := range []Mode{ModeInterp, ModeJIT} {
		var r traceRecorder
		if _, err := RunCtx(context.Background(), mustWorkload(t, "jess"), 2, mode, core.Config{}, &r); err != nil {
			t.Fatal(err)
		}
		g := pipeline.NewGroup(cfgs...)
		var checks []*pipeline.Checker
		for _, c := range g.Cores() {
			checks = append(checks, c.Check())
		}
		emitBatches(g, r.insts[:min(len(r.insts), 1<<17)])
		for i, c := range g.Cores() {
			if err := checks[i].Err(); err != nil {
				t.Fatalf("jess/%v: %v", mode, err)
			}
			cfg := c.Config()
			fmt.Fprintf(&b, "jess/%v w=%d rob=%d rs=%d lsq=%d spec=%t: instrs=%d cycles=%d mispredicts=%d squash=%d forwards=%d replays=%d\n",
				mode, cfg.IssueWidth, cfg.ROBSize, cfg.RSPerClass, cfg.LSQSize, cfg.MemSpeculate,
				c.Instrs, c.Cycles(), c.Mispredicts, c.SquashCycles, c.MemForwards, c.MemReplays)
		}
	}
	checkGolden(t, "core-counters-odd.txt", b.String())
}
