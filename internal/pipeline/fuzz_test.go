package pipeline

import (
	"testing"
)

// clampInt maps an arbitrary fuzzed byte/word into [1, hi].
func clampInt(v uint64, hi int) int {
	return 1 + int(v%uint64(hi))
}

// FuzzPipelineConfig drives the core across random configurations and
// traces and asserts the three properties the scheduler was built to
// guarantee:
//
//  1. every microarchitectural invariant holds (independent Checker);
//  2. simulation is deterministic — the same trace through two fresh
//     cores yields identical statistics;
//  3. resources are monotone — growing ROB, RS, LSQ or width never
//     increases the cycle count on the same trace;
//  4. sharing a front end is exact — a Group's cores count exactly
//     what standalone cores of the same configs count.
//
// Odd seeds draw the trace from hotTrace, so store-to-load forwarding,
// conservative disambiguation and replay are exercised too; even seeds
// draw it from mixedTrace.
func FuzzPipelineConfig(f *testing.F) {
	f.Add(uint8(4), uint16(64), uint8(16), uint16(32), uint8(1), uint8(3), uint8(2), uint8(3), uint8(5), uint8(20), true, uint64(1))
	f.Add(uint8(1), uint16(1), uint8(1), uint16(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), false, uint64(2))
	f.Add(uint8(8), uint16(512), uint8(64), uint16(256), uint8(2), uint8(9), uint8(4), uint8(7), uint8(31), uint8(90), true, uint64(3))
	f.Add(uint8(2), uint16(7), uint8(3), uint16(5), uint8(0), uint8(0), uint8(0), uint8(1), uint8(2), uint8(0), false, uint64(4))

	f.Fuzz(func(t *testing.T, width uint8, rob uint16, rs uint8, lsq uint16,
		intLat, fpLat, ldLat, fwdLat, misPen, missPen uint8, memSpec bool, seed uint64) {

		cfg := DefaultConfig(clampInt(uint64(width), 8))
		cfg.ROBSize = clampInt(uint64(rob), 1024)
		cfg.RSPerClass = clampInt(uint64(rs), 256)
		cfg.LSQSize = clampInt(uint64(lsq), 1024)
		cfg.IntLatency = uint64(intLat % 8)
		cfg.FPLatency = uint64(fpLat % 16)
		cfg.LoadLatency = uint64(ldLat % 16)
		cfg.ForwardLatency = uint64(fwdLat % 16)
		cfg.MispredictPenalty = uint64(misPen % 64)
		cfg.MissPenalty = uint64(missPen % 128)
		cfg.MemSpeculate = memSpec

		tr := mixedTrace(3000, seed)
		if seed%2 == 1 {
			tr = hotTrace(3000, seed)
		}

		run := func(cfg Config, check bool) (*Core, uint64) {
			c := New(cfg)
			var chk *Checker
			if check {
				chk = c.Check()
			}
			c.EmitBatch(tr)
			if check {
				if err := chk.Err(); err != nil {
					t.Fatalf("config %+v: %v", cfg, err)
				}
				if chk.Count() != c.Instrs {
					t.Fatalf("config %+v: checker saw %d instructions, core committed %d",
						cfg, chk.Count(), c.Instrs)
				}
			}
			return c, c.Cycles()
		}

		// Invariants hold under the checker.
		base, baseCycles := run(cfg, true)

		// Determinism: an identical fresh run is bit-identical.
		again, againCycles := run(cfg, false)
		if baseCycles != againCycles || base.Mispredicts != again.Mispredicts ||
			base.MemForwards != again.MemForwards || base.MemReplays != again.MemReplays {
			t.Fatalf("config %+v: nondeterministic replay: cycles %d vs %d", cfg, baseCycles, againCycles)
		}

		// Monotonicity: growing any structural resource never costs
		// cycles on the same trace.
		grow := []struct {
			name string
			mod  func(*Config)
		}{
			{"ROB", func(c *Config) { c.ROBSize *= 2 }},
			{"RS", func(c *Config) { c.RSPerClass *= 2 }},
			{"LSQ", func(c *Config) { c.LSQSize *= 2 }},
			{"width", func(c *Config) {
				if c.IssueWidth < 64 {
					c.IssueWidth *= 2
				}
			}},
			{"all", func(c *Config) {
				c.ROBSize *= 2
				c.RSPerClass *= 2
				c.LSQSize *= 2
			}},
		}
		cfgs := []Config{cfg}
		for _, g := range grow {
			big := cfg
			g.mod(&big)
			_, bigCycles := run(big, true)
			if bigCycles > baseCycles {
				t.Fatalf("doubling %s increased cycles %d -> %d (base %+v)",
					g.name, baseCycles, bigCycles, cfg)
			}
			cfgs = append(cfgs, big)
		}

		// Sharing: one group over the config, its grown variants (one
		// front end), a target-cache variant and a smaller-L1 variant
		// (one front end each) times every core exactly as a standalone
		// core does.
		tc, l1 := cfg, cfg
		tc.TargetCache = true
		l1.ICache.Size, l1.DCache.Size = 4<<10, 8<<10
		checkGroupMatchesStandalone(t, append(cfgs, tc, l1), tr, 1+int(seed%1500), 3)
	})
}

// TestHotTraceForwardsAndReplays pins that hotTrace, the fuzzer's
// second source, really reaches the LSQ paths mixedTrace misses: with
// memory speculation on, some loads forward and some replay.
func TestHotTraceForwardsAndReplays(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.MemSpeculate = true
	c := New(cfg)
	c.EmitBatch(hotTrace(3000, 1))
	if c.MemForwards == 0 || c.MemReplays == 0 {
		t.Fatalf("hotTrace(3000, 1): forwards=%d replays=%d, want both > 0", c.MemForwards, c.MemReplays)
	}
}
