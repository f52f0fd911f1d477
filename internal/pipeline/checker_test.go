package pipeline

import (
	"strings"
	"testing"

	"jrs/internal/trace"
)

// mixedTrace generates a deterministic pseudo-random instruction stream
// exercising every class, register dependences, memory reuse and
// control flow. Its loads and stores spread over 16K words, so they
// almost never meet in flight.
func mixedTrace(n int, seed uint64) []trace.Inst { return genTrace(n, seed, 1<<14) }

// hotTrace is mixedTrace with every load and store drawn from 16 hot
// words, so in-flight stores forward to loads and speculated loads
// replay.
func hotTrace(n int, seed uint64) []trace.Inst { return genTrace(n, seed, 4) }

// genTrace draws the stream, with load and store addresses from the
// first words words. splitmix64 keeps it reproducible without
// math/rand.
func genTrace(n int, seed, words uint64) []trace.Inst {
	next := func() uint64 {
		seed += 0x9E3779B97F4A7C15
		z := seed
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	reg := func(r uint64) uint8 {
		if r%5 == 0 {
			return trace.RegNone
		}
		return uint8(r % 32)
	}
	out := make([]trace.Inst, n)
	for i := range out {
		r := next()
		in := trace.Inst{
			PC:   uint64(i%512) * 4,
			Src1: reg(r >> 8),
			Src2: reg(r >> 16),
			Dst:  reg(r >> 24),
		}
		switch r % 16 {
		case 0, 1:
			in.Class = trace.Load
			in.Addr = (r >> 32) % words * 8
		case 2:
			in.Class = trace.Store
			in.Addr = (r >> 32) % words * 8
		case 3:
			in.Class = trace.FPU
		case 4:
			in.Class = trace.Branch
			in.Target = in.PC + 64
			in.Taken = r>>40&3 == 0
		case 5:
			in.Class = trace.IndirectJump
			in.Target = (r >> 44) % 8 * 0x100
			in.Taken = true
			in.Dst = trace.RegNone
		default:
			in.Class = trace.ALU
		}
		out[i] = in
	}
	return out
}

// TestCheckerCleanOnRealRuns attaches the checker to real cores across
// a spread of configurations and asserts no invariant fires and every
// instruction is seen exactly once.
func TestCheckerCleanOnRealRuns(t *testing.T) {
	tr := mixedTrace(30000, 7)
	cfgs := []Config{
		DefaultConfig(1),
		DefaultConfig(4),
		DefaultConfig(8),
	}
	tight := DefaultConfig(4)
	tight.ROBSize, tight.RSPerClass, tight.LSQSize = 2, 1, 1
	cfgs = append(cfgs, tight)
	cons := DefaultConfig(4)
	cons.MemSpeculate = false
	cfgs = append(cfgs, cons)
	tc := DefaultConfig(2)
	tc.TargetCache = true
	cfgs = append(cfgs, tc)

	for i, cfg := range cfgs {
		c := New(cfg)
		chk := c.Check()
		c.EmitBatch(tr)
		if err := chk.Err(); err != nil {
			t.Errorf("config %d: %v", i, err)
		}
		if chk.Count() != c.Instrs || c.Instrs != uint64(len(tr)) {
			t.Errorf("config %d: checker saw %d commits, core %d, trace %d",
				i, chk.Count(), c.Instrs, len(tr))
		}
	}
}

// wantViolation feeds events to a fresh checker and asserts a violation
// mentioning substr is recorded.
func wantViolation(t *testing.T, name, substr string, cfg Config, events []Event) {
	t.Helper()
	chk := NewChecker(cfg)
	for _, e := range events {
		chk.Record(e)
	}
	err := chk.Err()
	if err == nil {
		t.Errorf("%s: corrupted stream passed the checker", name)
		return
	}
	if !strings.Contains(err.Error(), substr) {
		t.Errorf("%s: violation %q does not mention %q", name, err, substr)
	}
}

// ev builds a well-formed ALU event for corruption tests.
func ev(seq, fetch uint64) Event {
	return Event{
		Seq: seq, Class: trace.ALU,
		Src1: trace.RegNone, Src2: trace.RegNone, Dst: trace.RegNone,
		Fetch: fetch, Dispatch: fetch + 1, Issue: fetch + 1,
		Complete: fetch + 2, Commit: fetch + 3,
	}
}

// TestCheckerCatchesCorruption verifies each invariant actually trips
// on a stream violating it — the checker must not be a rubber stamp.
func TestCheckerCatchesCorruption(t *testing.T) {
	cfg := DefaultConfig(4)

	wantViolation(t, "seq-gap", "sequence gap", cfg,
		[]Event{ev(0, 0), ev(2, 4)})

	wantViolation(t, "double-retire", "sequence gap", cfg,
		[]Event{ev(0, 0), ev(0, 4)})

	e := ev(0, 5)
	e.Dispatch = 5
	wantViolation(t, "dispatch-at-fetch", "dispatched at or before fetch", cfg, []Event{e})

	e = ev(0, 5)
	e.Issue = e.Dispatch - 1
	wantViolation(t, "issue-before-dispatch", "issued before dispatch", cfg, []Event{e})

	e = ev(0, 5)
	e.Complete = e.Issue - 1
	wantViolation(t, "complete-before-issue", "completed before issue", cfg, []Event{e})

	e = ev(0, 5)
	e.Commit = e.Complete
	wantViolation(t, "commit-at-complete", "committed at or before completion", cfg, []Event{e})

	later, earlier := ev(0, 20), ev(1, 21)
	earlier.Commit = later.Commit - 1
	earlier.Complete = earlier.Commit - 1
	earlier.Issue, earlier.Dispatch = earlier.Complete, earlier.Complete
	wantViolation(t, "commit-out-of-order", "commit out of order", cfg,
		[]Event{later, earlier})

	// Three instructions in flight at once through a 2-entry ROB.
	small := cfg
	small.ROBSize = 2
	overlap := make([]Event, 3)
	for i := range overlap {
		overlap[i] = ev(uint64(i), 0)
		overlap[i].Commit = 10 + uint64(i)
		overlap[i].Complete = 9
	}
	wantViolation(t, "rob-overflow", "ROB overflow", small, overlap)

	// Same through a 1-entry LSQ.
	small = cfg
	small.LSQSize = 1
	mem := make([]Event, 2)
	for i := range mem {
		mem[i] = ev(uint64(i), 0)
		mem[i].Class = trace.Load
		mem[i].Word = uint64(i)
		mem[i].Commit = 10 + uint64(i)
		mem[i].Complete = 9
	}
	wantViolation(t, "lsq-overflow", "LSQ overflow", small, mem)

	// Two integer instructions waiting to issue in one station.
	small = cfg
	small.RSPerClass = 1
	waiting := make([]Event, 2)
	for i := range waiting {
		waiting[i] = ev(uint64(i), 0)
		waiting[i].Issue = 5
		waiting[i].Complete = 6
		waiting[i].Commit = 7 + uint64(i)
	}
	wantViolation(t, "rs-overflow", "RS overflow", small, waiting)

	// Consumer issues before its producer broadcasts.
	prod := ev(0, 0)
	prod.Dst = 7
	prod.Complete = 50
	prod.Commit = 51
	cons := ev(1, 0)
	cons.Src1 = 7
	cons.Issue = 10
	cons.Complete = 11
	cons.Commit = 52
	wantViolation(t, "issue-before-broadcast", "before src1 r7 broadcast", cfg,
		[]Event{prod, cons})

	// Forwarding with no older store to the word.
	ld := ev(0, 0)
	ld.Class = trace.Load
	ld.Word = 0x42
	ld.FwdUsed = true
	ld.FwdFrom = 1
	ld.Complete = 1 + cfg.ForwardLatency
	ld.Commit = ld.Complete + 1
	wantViolation(t, "forward-no-store", "no older store", cfg, []Event{ld})

	// Forwarding from a cycle that is not the last older store's.
	st := ev(0, 0)
	st.Class = trace.Store
	st.Word = 0x42
	st.Complete = 5
	st.Commit = 6
	ld = ev(1, 0)
	ld.Class = trace.Load
	ld.Word = 0x42
	ld.FwdUsed = true
	ld.FwdFrom = 4 // store completed at 5
	ld.Complete = 4 + cfg.ForwardLatency
	ld.Commit = 7
	wantViolation(t, "forward-wrong-store", "last older store", cfg, []Event{st, ld})

	// Forward-bound load completing at the wrong cycle.
	ld2 := ev(1, 0)
	ld2.Class = trace.Load
	ld2.Word = 0x42
	ld2.FwdUsed = true
	ld2.FwdFrom = 5
	ld2.Complete = 5 + cfg.ForwardLatency + 2
	ld2.Commit = ld2.Complete + 1
	wantViolation(t, "forward-wrong-cycle", "forward latency", cfg, []Event{st, ld2})

	// Forwarding on a store.
	bad := ev(0, 0)
	bad.Class = trace.Store
	bad.FwdUsed = true
	wantViolation(t, "forward-non-load", "non-load", cfg, []Event{bad})
}

// TestCheckerViolationCap verifies a badly broken stream cannot grow
// the report without bound.
func TestCheckerViolationCap(t *testing.T) {
	chk := NewChecker(DefaultConfig(4))
	for i := 0; i < 1000; i++ {
		e := ev(uint64(i), 0)
		e.Dispatch = 0 // always violates dispatch > fetch
		e.Issue = 0
		e.Complete = 1
		e.Commit = 2
		chk.Record(e)
	}
	if n := len(chk.Violations()); n > maxViolations {
		t.Errorf("recorded %d violations, cap is %d", n, maxViolations)
	}
	if chk.Err() == nil {
		t.Error("violations recorded but Err is nil")
	}
}
