package pipeline

import (
	"testing"

	"jrs/internal/trace"
)

// counters is a core's six exact counters.
func counters(c *Core) [6]uint64 {
	return [6]uint64{c.Instrs, c.LastCycle, c.Mispredicts, c.SquashCycles, c.MemForwards, c.MemReplays}
}

// checkGroupMatchesStandalone drives one Group over cfgs, feeding tr in
// batches of batch instructions, and requires every group core to
// count exactly what a standalone core of its config counts, with a
// clean checker, on wantFronts shared front ends. Two configs must
// share a core exactly when they are equal.
func checkGroupMatchesStandalone(t *testing.T, cfgs []Config, tr []trace.Inst, batch, wantFronts int) {
	t.Helper()
	g := NewGroup(cfgs...)
	if n := g.FrontEnds(); n != wantFronts {
		t.Fatalf("%d front ends for %d cores, want %d", n, len(cfgs), wantFronts)
	}
	if len(g.Cores()) != len(cfgs) {
		t.Fatalf("%d cores listed for %d configs", len(g.Cores()), len(cfgs))
	}
	for i, a := range g.Cores() {
		for j, b := range g.Cores()[:i] {
			if (a == b) != (cfgs[i] == cfgs[j]) {
				t.Fatalf("configs %d and %d: shared core %t, equal configs %t", j, i, a == b, cfgs[i] == cfgs[j])
			}
		}
	}
	var checks []*Checker
	for _, c := range g.Cores() {
		checks = append(checks, c.Check())
	}
	for rest := tr; len(rest) > 0; {
		n := min(batch, len(rest))
		g.EmitBatch(rest[:n])
		rest = rest[n:]
	}
	for i, c := range g.Cores() {
		if err := checks[i].Err(); err != nil {
			t.Fatalf("group core %d (%+v): %v", i, cfgs[i], err)
		}
		alone := New(cfgs[i])
		alone.EmitBatch(tr)
		if got, want := counters(c), counters(alone); got != want {
			t.Fatalf("group core %d (%+v): counters %v, standalone %v", i, cfgs[i], got, want)
		}
	}
}

// TestGroupMatchesStandalone checks that sharing a front end, a store
// index and a core is exact: fig9's four widths on one front end,
// target-cache and smaller-L1 cores that need front ends of their own,
// and two configs that appear twice and are timed once.
func TestGroupMatchesStandalone(t *testing.T) {
	tr := mixedTrace(20000, 11)
	var cfgs []Config
	for _, width := range []int{1, 2, 4, 8} {
		cfgs = append(cfgs, DefaultConfig(width))
	}
	checkGroupMatchesStandalone(t, cfgs, tr, 1024, 1)

	tight := DefaultConfig(2)
	tight.ROBSize, tight.RSPerClass, tight.LSQSize, tight.MemSpeculate = 4, 1, 2, false
	tc := DefaultConfig(4)
	tc.TargetCache = true
	l1 := DefaultConfig(4)
	l1.ICache.Size, l1.DCache.Assoc = 8<<10, 1
	checkGroupMatchesStandalone(t, append(cfgs, tight, tc, l1, DefaultConfig(4), tight), tr, 333, 3)
}

// TestGroupEmit checks the per-instruction path of a group.
func TestGroupEmit(t *testing.T) {
	tr := mixedTrace(3000, 5)
	g := NewGroup(DefaultConfig(1), DefaultConfig(4))
	for _, in := range tr {
		g.Emit(in)
	}
	for _, c := range g.Cores() {
		alone := New(c.Config())
		alone.EmitBatch(tr)
		if counters(c) != counters(alone) {
			t.Errorf("width %d: per-instruction group counters %v, standalone %v",
				c.Config().IssueWidth, counters(c), counters(alone))
		}
	}
}
