package pipeline

import (
	"testing"

	"jrs/internal/trace"
)

// minimalConfig is the degenerate core: one-wide, one ROB entry, one
// station per class, one LSQ slot. With a single ROB entry every
// instruction must commit before its successor dispatches, so the
// machine is a strict in-order serial pipeline.
func minimalConfig() Config {
	cfg := DefaultConfig(1)
	cfg.ROBSize, cfg.RSPerClass, cfg.LSQSize = 1, 1, 1
	return cfg
}

// TestMinimalResourcesDegenerateToInOrder pins the degenerate bound:
// the minimal core serializes completely, so (a) IPC cannot exceed the
// in-order serial rate, and (b) register dependences change nothing —
// an independent stream and a serial dependence chain take exactly the
// same cycles, because the one-entry ROB already enforces the chain's
// schedule.
func TestMinimalResourcesDegenerateToInOrder(t *testing.T) {
	const n = 10000
	indep := New(minimalConfig())
	seqALU(indep, n)

	dep := New(minimalConfig())
	for i := 0; i < n; i++ {
		dep.Emit(trace.Inst{PC: uint64(i%256) * 4, Class: trace.ALU,
			Src1: 5, Src2: trace.RegNone, Dst: 5})
	}

	if indep.Cycles() != dep.Cycles() {
		t.Errorf("one-entry ROB must serialize regardless of dependences: independent %d cycles, chained %d",
			indep.Cycles(), dep.Cycles())
	}
	// Serial recurrence: dispatch waits for the previous commit, then
	// issue (+1 from fetch), execute (IntLatency), commit (+1) — at
	// least 3 cycles per ALU instruction.
	if ipc := indep.IPC(); ipc > 1.0/3.0+0.01 {
		t.Errorf("minimal core IPC %.3f exceeds the serial in-order bound", ipc)
	}
}

// TestUnboundedResourcesIPCBoundedByWidth removes every structural
// limit and checks the only remaining limiter is front-end width: IPC
// approaches IssueWidth on independent work and never exceeds it.
func TestUnboundedResourcesIPCBoundedByWidth(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig(w)
		cfg.ROBSize, cfg.RSPerClass, cfg.LSQSize = 1<<14, 1<<14, 1<<14
		c := New(cfg)
		seqALU(c, 120000)
		ipc := c.IPC()
		if ipc > float64(w)+0.01 {
			t.Errorf("width %d: unbounded-resource IPC %.3f exceeds issue width", w, ipc)
		}
		if ipc < float64(w)*0.9 {
			t.Errorf("width %d: unbounded-resource IPC %.3f should approach width on independent work", w, ipc)
		}
	}
}

// TestMoreResourcesNeverSlower sweeps each structural axis on the same
// mixed trace and requires cycle counts to be non-increasing — the
// monotonicity contract the scheduler was designed around (the fuzzer
// probes the same property over random configurations).
func TestMoreResourcesNeverSlower(t *testing.T) {
	tr := mixedTrace(30000, 11)
	run := func(mod func(*Config)) uint64 {
		cfg := DefaultConfig(4)
		mod(&cfg)
		c := New(cfg)
		c.EmitBatch(tr)
		return c.Cycles()
	}
	axes := []struct {
		name string
		mod  func(*Config, int)
		vals []int
	}{
		{"ROB", func(c *Config, v int) { c.ROBSize = v }, []int{1, 4, 16, 64, 256, 1024}},
		{"RS", func(c *Config, v int) { c.RSPerClass = v }, []int{1, 2, 8, 32, 128}},
		{"LSQ", func(c *Config, v int) { c.LSQSize = v }, []int{1, 4, 16, 64, 256}},
		{"width", func(c *Config, v int) { c.IssueWidth = v }, []int{1, 2, 4, 8}},
	}
	for _, ax := range axes {
		var prev uint64
		for i, v := range ax.vals {
			cy := run(func(c *Config) { ax.mod(c, v) })
			if i > 0 && cy > prev {
				t.Errorf("%s %d -> %d: cycles grew %d -> %d", ax.name, ax.vals[i-1], v, prev, cy)
			}
			prev = cy
		}
	}
}

// TestNewVsLegacySynthetic pins the core against the retired window
// model on a synthetic mixed stream: both are timing models of the same
// machine, so their cycle counts must stay within a coarse envelope at
// every width (the harness pins a tighter envelope on real workloads).
// The legacy results are frozen; to regenerate them, check out commit
// 0df0c36, the last with internal/pipeline/legacy.go, and time
// mixedTrace(50000, 3) there with the legacy model at DefaultConfig(w).
func TestNewVsLegacySynthetic(t *testing.T) {
	tr := mixedTrace(50000, 3)
	for _, ref := range []struct {
		width          int
		instrs, cycles uint64
	}{
		{1, 50000, 78268},
		{2, 50000, 55726},
		{4, 50000, 46174},
		{8, 50000, 42522},
	} {
		ooo := New(DefaultConfig(ref.width))
		ooo.EmitBatch(tr)
		if ooo.Instrs != ref.instrs {
			t.Fatalf("width %d: core timed %d instructions, the frozen legacy reference %d",
				ref.width, ooo.Instrs, ref.instrs)
		}
		legacy := float64(ref.instrs) / float64(ref.cycles)
		ratio := ooo.IPC() / legacy
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("width %d: new core IPC %.3f vs legacy %.3f (ratio %.2f) outside envelope",
				ref.width, ooo.IPC(), legacy, ratio)
		}
	}
}

// TestMemSpeculationReplayAndConservativeStall checks the two
// disambiguation modes: speculation forwards (and replays) without ever
// being slower than the conservative machine, and the conservative
// machine never replays because loads wait for store data before issue.
func TestMemSpeculationReplayAndConservativeStall(t *testing.T) {
	mk := func(spec bool) *Core {
		cfg := DefaultConfig(4)
		cfg.MemSpeculate = spec
		c := New(cfg)
		chk := c.Check()
		// Tight store->load chains through one word force forwarding;
		// padding ALU work gives the speculative load room to issue
		// before the store's data is ready.
		for i := 0; i < 4000; i++ {
			c.Emit(trace.Inst{PC: 0x10, Class: trace.Store, Addr: 0x5000,
				Src1: 4, Src2: trace.RegNone, Dst: trace.RegNone})
			c.Emit(trace.Inst{PC: 0x14, Class: trace.Load, Addr: 0x5000,
				Src1: trace.RegNone, Src2: trace.RegNone, Dst: 4})
		}
		if err := chk.Err(); err != nil {
			t.Fatalf("speculate=%v: %v", spec, err)
		}
		return c
	}
	spec, cons := mk(true), mk(false)
	if spec.MemReplays == 0 {
		t.Error("speculative core never replayed on a store->load chain")
	}
	if cons.MemReplays != 0 {
		t.Errorf("conservative core replayed %d times; loads must wait for store data", cons.MemReplays)
	}
	if cons.MemForwards == 0 {
		t.Error("conservative core never forwarded on a store->load chain")
	}
	if spec.Cycles() > cons.Cycles() {
		t.Errorf("speculation slower than conservative: %d > %d cycles", spec.Cycles(), cons.Cycles())
	}
}

// TestMispredictRecoveryCounters checks squash accounting: a stream of
// BTB-defeating indirect jumps must record mispredicts and discarded
// front-end cycles, and a predictable stream must record none of the
// latter's magnitude.
func TestMispredictRecoveryCounters(t *testing.T) {
	bad := New(DefaultConfig(4))
	for i := 0; i < 2000; i++ {
		tgt := uint64(0x100)
		if i%2 == 1 {
			tgt = 0x200
		}
		bad.Emit(trace.Inst{PC: 64, Class: trace.IndirectJump, Target: tgt,
			Taken: true, Src1: 3, Src2: trace.RegNone, Dst: trace.RegNone})
	}
	if bad.Mispredicts == 0 || bad.SquashCycles == 0 {
		t.Errorf("alternating indirect jumps: mispredicts=%d squash=%d, want both > 0",
			bad.Mispredicts, bad.SquashCycles)
	}

	good := New(DefaultConfig(4))
	seqALU(good, 2000)
	if good.Mispredicts != 0 {
		t.Errorf("pure ALU stream recorded %d mispredicts", good.Mispredicts)
	}
}

// TestDeterministicReplay runs the same trace twice through fresh cores
// and demands bit-identical statistics.
func TestDeterministicReplay(t *testing.T) {
	tr := mixedTrace(20000, 99)
	run := func() (uint64, uint64, uint64, uint64) {
		c := New(DefaultConfig(4))
		c.EmitBatch(tr)
		return c.Cycles(), c.Mispredicts, c.MemForwards, c.MemReplays
	}
	c1, m1, f1, r1 := run()
	c2, m2, f2, r2 := run()
	if c1 != c2 || m1 != m2 || f1 != f2 || r1 != r2 {
		t.Errorf("two runs diverged: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			c1, m1, f1, r1, c2, m2, f2, r2)
	}
}

// TestInvalidConfigPanics pins the constructor's validation.
func TestInvalidConfigPanics(t *testing.T) {
	for _, mod := range []func(*Config){
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.ROBSize = 0 },
		func(c *Config) { c.RSPerClass = 0 },
		func(c *Config) { c.LSQSize = 0 },
	} {
		cfg := DefaultConfig(4)
		mod(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New accepted invalid config %+v", cfg)
				}
			}()
			New(cfg)
		}()
	}
}
