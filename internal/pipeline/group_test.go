package pipeline

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"jrs/internal/branch"
	"jrs/internal/cache"
	"jrs/internal/trace"
)

// counters is a core's six exact counters.
func counters(c *Core) [6]uint64 {
	return [6]uint64{c.Instrs, c.LastCycle, c.Mispredicts, c.SquashCycles, c.MemForwards, c.MemReplays}
}

// frontEndStats is a front end's cache and predictor statistics.
type frontEndStats struct {
	ic, dc cache.Stats
	bp     branch.Stats
}

func statsOf(f *frontEnd) frontEndStats { return frontEndStats{f.ic.Stats, f.dc.Stats, f.bp.Stats} }

// checkGroupMatchesStandalone drives one Group over cfgs, feeding tr in
// batches of batch instructions, releases it, and requires every group
// core to count exactly what a standalone core of its config counts,
// with a clean checker, on wantFronts shared front ends whose cache and
// predictor statistics equal the standalone core's. Two configs must
// share a core exactly when they are equal. It returns the slot count
// of the store index the group started with and the group's front ends.
func checkGroupMatchesStandalone(t *testing.T, cfgs []Config, tr []trace.Inst, batch, wantFronts int) (slots int, fronts []*frontEnd) {
	t.Helper()
	g := NewGroup(cfgs...)
	slots, fronts = len(g.idx.words.keys), g.fronts
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
	var alone []*Core
	for _, cfg := range cfgs {
		c := New(cfg)
		c.EmitBatch(tr)
		alone = append(alone, c)
	}
	for i, c := range g.Cores() {
		if got, want := statsOf(c.fe), statsOf(alone[i].fe); got != want {
			t.Fatalf("group core %d (%+v): front end %+v, standalone %+v", i, cfgs[i], got, want)
		}
	}
	g.Release()
	for i, c := range g.Cores() {
		if err := checks[i].Err(); err != nil {
			t.Fatalf("group core %d (%+v): %v", i, cfgs[i], err)
		}
		if got, want := counters(c), counters(alone[i]); got != want {
			t.Fatalf("group core %d (%+v): counters %v, standalone %v", i, cfgs[i], got, want)
		}
	}
	return slots, fronts
}

// TestGroupMatchesStandalone checks that sharing a front end, a store
// index and a core is exact: fig9's four widths on one front end,
// target-cache and smaller-L1 cores that need front ends of their own,
// and two configs that appear twice and are timed once.
func TestGroupMatchesStandalone(t *testing.T) {
	tr := mixedTrace(20000, 11)
	cfgs := fig9Widths()
	checkGroupMatchesStandalone(t, cfgs, tr, 1024, 1)
	checkGroupMatchesStandalone(t, append(cfgs, ownFrontEnds()...), tr, 333, 3)
}

// fig9Widths is fig9's four cores, on one front end.
func fig9Widths() []Config {
	var cfgs []Config
	for _, width := range []int{1, 2, 4, 8} {
		cfgs = append(cfgs, DefaultConfig(width))
	}
	return cfgs
}

// ownFrontEnds is a tight core, a target-cache core and a small-L1 core,
// the last two on front ends of their own, then a width-4 default core
// and the tight core again, which a group times on cores it already has.
func ownFrontEnds() []Config {
	tight := DefaultConfig(2)
	tight.ROBSize, tight.RSPerClass, tight.LSQSize, tight.MemSpeculate = 4, 1, 2, false
	tc := DefaultConfig(4)
	tc.TargetCache = true
	l1 := DefaultConfig(4)
	l1.ICache.Size, l1.DCache.Assoc = 8<<10, 1
	return []Config{tight, tc, l1, DefaultConfig(4), tight}
}

// oneP runs the rest of the test on one P, so that a group built after
// a Release takes the index just released from that P's pool slot.
func oneP(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestGroupReuseMatchesFresh dirties a store index with a trace of over
// 8K words, and three front ends (fig9's, a target-cache one and a
// small-L1 one) with it, and releases them; groups that pick them up
// must then count exactly what fresh standalone cores count, in the
// cores and in the front ends' caches and predictors. The collector is
// off, since a pool drops what sits in it through two collections and
// the small-L1 and target-cache front ends wait through the first
// case. Under -race, sync.Pool drops released items at random, so only
// the counts are required there, not the pick-up.
func TestGroupReuseMatchesFresh(t *testing.T) {
	oneP(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	g := NewGroup(append(fig9Widths(), ownFrontEnds()...)...)
	g.EmitBatch(mixedTrace(80000, 3))
	words, slots := g.idx.words.n, len(g.idx.words.keys)
	if words <= 8<<10 {
		t.Fatalf("dirtying trace numbered %d words, want over %d", words, 8<<10)
	}
	dirty := map[*frontEnd]bool{}
	for _, f := range g.fronts {
		dirty[f] = true
	}
	if len(dirty) != 3 || !g.fronts[1].key.TargetCache || g.fronts[0].key.TargetCache {
		t.Fatalf("dirtying group has front ends %v, want fig9's, a target-cache one and a small-L1 one", g.fronts)
	}
	g.Release()

	tr := mixedTrace(20000, 11)
	for _, c := range []struct {
		cfgs          []Config
		batch, fronts int
	}{
		{fig9Widths(), 1024, 1},
		{append(fig9Widths(), ownFrontEnds()...), 333, 3},
		{ownFrontEnds(), 4096, 3},
	} {
		got, fronts := checkGroupMatchesStandalone(t, c.cfgs, tr, c.batch, c.fronts)
		if raceEnabled {
			continue
		}
		if got != slots {
			t.Fatalf("group of %d configs started with %d index slots, want the released %d", len(c.cfgs), got, slots)
		}
		for _, f := range fronts {
			if !dirty[f] {
				t.Fatalf("group of %d configs built a front end for %+v, want a released one", len(c.cfgs), f.key)
			}
		}
	}
}

// TestGroupReleasedPanics feeds a released group and each of its cores:
// each must panic rather than time against an emptied index, and the
// cores' counters stay as the run left them.
func TestGroupReleasedPanics(t *testing.T) {
	tr := mixedTrace(3000, 5)
	g := NewGroup(DefaultConfig(1), DefaultConfig(4))
	g.EmitBatch(tr)
	var want [][6]uint64
	for _, c := range g.Cores() {
		want = append(want, counters(c))
	}
	g.Release()
	g.Release() // a second release does nothing
	feeds := map[string]func(){
		"group":     func() { g.EmitBatch(tr) },
		"group one": func() { g.Emit(tr[0]) },
		"core":      func() { g.Cores()[1].EmitBatch(tr) },
		"core one":  func() { g.Cores()[0].Emit(tr[0]) },
	}
	for name, feed := range feeds {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "released") {
					t.Errorf("%s fed after Release: recovered %v, want a released-group panic", name, r)
				}
			}()
			feed()
		}()
	}
	for i, c := range g.Cores() {
		if counters(c) != want[i] {
			t.Errorf("core %d: counters %v after Release, %v before", i, counters(c), want[i])
		}
	}
}

// TestGroupReuseAllocatesNoMore: once a released index has grown to a
// trace's footprint, a group over 40× wordTableInitSize words allocates
// no more host memory than one over wordTableInitSize words, within a
// small fixed slack: the index is reused, not regrown. The slack covers
// the D-cache's set of lines ever touched, which grows by a page per
// 1K lines (about 1.5 KB here). Skipped under -race, where sync.Pool
// drops released items at random.
func TestGroupReuseAllocatesNoMore(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops released items at random under -race")
	}
	oneP(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const n, slack = 80 * wordTableInitSize, 4 << 10
	// words alternates a store and a load over the first k words.
	words := func(k int) []trace.Inst {
		tr := make([]trace.Inst, n)
		for i := range tr {
			tr[i] = trace.Inst{Class: trace.Store, PC: uint64(i%512) * 4, Addr: uint64(i/2%k) * 8,
				Src1: uint8(i % 7), Src2: trace.RegNone, Dst: trace.RegNone}
			if i%2 == 1 {
				tr[i].Class, tr[i].Src1, tr[i].Dst = trace.Load, trace.RegNone, uint8(i%7)
			}
		}
		return tr
	}
	run := func(tr []trace.Inst) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g := NewGroup(fig9Widths()...)
		for rest := tr; len(rest) > 0; rest = rest[min(trace.DefaultBatchSize, len(rest)):] {
			g.EmitBatch(rest[:min(trace.DefaultBatchSize, len(rest))])
		}
		g.Release()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := words(wordTableInitSize), words(40*wordTableInitSize)
	run(large)
	if s, l := run(small), run(large); l > s+slack {
		t.Errorf("a group over %d words allocates %d bytes, over %d words %d bytes", 40*wordTableInitSize, l, wordTableInitSize, s)
	}
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
