package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"jrs/internal/branch"
	"jrs/internal/cache"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// claimPayloads runs every claim of the plans' groups through runClaim,
// the way a Runner fuses them, and returns each group's payload by key.
func claimPayloads(t *testing.T, plans []*Plan) map[CellKey]json.RawMessage {
	t.Helper()
	out := map[CellKey]json.RawMessage{}
	l := NewLedger(LedgerConfig{}, plans...)
	for {
		batch, _ := l.Claim(time.Now(), 0)
		if len(batch) == 0 {
			break
		}
		members := make([]*CellGroup, len(batch))
		for k, c := range batch {
			members[k] = l.groups[c.Group]
		}
		raws, err := runClaim(context.Background(), members)
		if err != nil {
			t.Fatal(err)
		}
		for k, c := range batch {
			out[members[k].Key] = raws[k]
			if err := l.Commit(c.Group, raws[k]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Finish(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSinkReuseMatchesFresh: sinks taken from the pools count exactly
// what new ones count. Two collections empty every sync.Pool; then
// table2, table3, fig3, fig7 and ablate-install (whose write-no-allocate
// and direct-install hierarchies have geometries of their own) run on
// jess and javac at BenchN. An mtrt run of the same experiments dirties
// the pools, and a second run on jess and javac must make the first
// run's payload bytes, cell by cell.
func TestSinkReuseMatchesFresh(t *testing.T) {
	plans := func(names ...string) []*Plan {
		var plans []*Plan
		for _, name := range []string{"table2", "table3", "fig3", "fig7", "ablate-install"} {
			e, _ := Lookup(name)
			plans = append(plans, e.Plan(helloOpts(names...)))
		}
		return plans
	}
	runtime.GC()
	runtime.GC()
	fresh := claimPayloads(t, plans("jess", "javac"))
	claimPayloads(t, plans("mtrt"))
	reused := claimPayloads(t, plans("jess", "javac"))
	if len(reused) != len(fresh) {
		t.Fatalf("%d cell groups on reused sinks, %d on fresh ones", len(reused), len(fresh))
	}
	for key, raw := range fresh {
		if !bytes.Equal(reused[key], raw) {
			t.Errorf("%s: payload %s on reused sinks, %s on fresh ones", key, payloadDigest(reused[key]), payloadDigest(raw))
		}
	}
}

// TestSinksReleasedOnce: a member that attaches one hierarchy, one
// suite and one sampler (as fig6 does) to two runs hands each back
// exactly once, after its reduce: the sampler's hierarchy included.
// Handed back twice, a cache or suite would go to two later holders, so
// two later calls of its constructor must return distinct sinks (and
// Release panics on a second release). The caches' geometries are used
// by no experiment, so only this test fills their pools.
func TestSinksReleasedOnce(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w, _ := workloads.ByName("hello")
	icfg := cache.Config{Name: "I", Size: 2 << 10, LineSize: 16, Assoc: 2, WriteAllocate: true}
	dcfg := cache.Config{Name: "D", Size: 2 << 10, LineSize: 16, Assoc: 4, WriteAllocate: true}
	sicfg := cache.Config{Name: "I", Size: 1 << 10, LineSize: 16, Assoc: 1, WriteAllocate: true}
	sdcfg := cache.Config{Name: "D", Size: 1 << 10, LineSize: 16, Assoc: 2, WriteAllocate: true}
	h, s := cache.NewHierarchy(icfg, dcfg), branch.NewSuite()
	sm := cache.NewSampler(cache.NewHierarchy(sicfg, sdcfg), 50_000)
	runs := []run{
		{mode: ModeInterp, hs: []*cache.Hierarchy{h}, sinks: []trace.Sink{s, sm}},
		{mode: ModeJIT, hs: []*cache.Hierarchy{h}, sinks: []trace.Sink{s, sm}},
	}
	reduced := 0
	reduce := func(int) error {
		if h.I.Stats.Refs() == 0 || s.Units[0].Stats.Transfers() == 0 || sm.H.D.Stats.Refs() == 0 {
			t.Error("the member's sinks were reset before its reduce read them")
		}
		if sm.Finish(); len(sm.Series) == 0 {
			t.Error("the sampler closed no window")
		}
		reduced++
		return nil
	}
	if err := execRuns(context.Background(), w, w.BenchN, reduce, runs); err != nil {
		t.Fatal(err)
	}
	if reduced != 1 {
		t.Fatalf("the member was reduced %d times, want once", reduced)
	}
	for _, c := range []struct {
		name string
		cfg  cache.Config
		was  *cache.Cache
	}{{"I", icfg, h.I}, {"D", dcfg, h.D}, {"sampler I", sicfg, sm.H.I}, {"sampler D", sdcfg, sm.H.D}} {
		a, b := cache.New(c.cfg), cache.New(c.cfg)
		if a == b {
			t.Errorf("%s: two New calls returned one cache: it was handed back twice", c.name)
		}
		if !raceEnabled && a != c.was && b != c.was {
			t.Errorf("%s: the hierarchy's cache was not handed back", c.name)
		}
	}
	a, b := branch.NewSuite(), branch.NewSuite()
	if a == b {
		t.Error("two NewSuite calls returned one suite: it was handed back twice")
	}
	if !raceEnabled && a != s && b != s {
		t.Error("the suite was not handed back")
	}
}

// TestWarmCacheClaimAllocatesLittle: once a fused table2 + table3 +
// fig3 + fig7 claim on hello has run, a second one takes its tag stores,
// predictor tables and reduction buffers from the pools. It must
// allocate under a quarter of the bytes that building its sinks anew
// allocates. Skipped under -race, where sync.Pool drops released items
// at random.
func TestWarmCacheClaimAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops released items at random under -race")
	}
	// claim returns the members of the first claim of a fresh cachesim
	// grid on hello, one per experiment.
	claim := func() []*CellGroup {
		l := NewLedger(LedgerConfig{}, cachesimPlans(helloOpts())...)
		batch, _ := l.Claim(time.Now(), 0)
		if len(batch) != 4 {
			t.Fatalf("the first cachesim claim on hello has %d members, want 4", len(batch))
		}
		members := make([]*CellGroup, len(batch))
		for k, c := range batch {
			members[k] = l.groups[c.Group]
		}
		return members
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	run := func() {
		if _, err := runClaim(context.Background(), claim()); err != nil {
			t.Fatal(err)
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC()
	members := claim()
	held := allocated(func() {
		for _, g := range members {
			g.decl()
		}
	})
	run()
	if warm := allocated(run); warm*4 >= held {
		t.Errorf("a warm cachesim claim on hello allocates %d bytes, its sinks %d: want under a quarter", warm, held)
	}
}
