package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jrs/internal/workloads"
)

// helloOpts selects the named workloads (default hello) at their quick
// scale, which keeps tests fast.
func helloOpts(names ...string) Options {
	if len(names) == 0 {
		names = []string{"hello"}
	}
	o := Options{Quick: true}
	for _, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			panic("unknown workload " + n)
		}
		o.Workloads = append(o.Workloads, w)
	}
	return o
}

// renderWith runs one experiment on a runner and returns its report.
func renderWith(t *testing.T, e Experiment, o Options, r *Runner) string {
	t.Helper()
	res, err := e.RunWith(o, r)
	if err != nil {
		t.Fatalf("%s: %v", e.Name, err)
	}
	return res.Render()
}

// TestDeterministicParallelRender requires every registered experiment
// to render byte-identically on 1 worker and on 8 workers.
func TestDeterministicParallelRender(t *testing.T) {
	o := helloOpts()
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			serial := renderWith(t, e, o, &Runner{Workers: 1})
			parallel := renderWith(t, e, o, &Runner{Workers: 8})
			if serial != parallel {
				t.Errorf("8-worker render differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
					serial, parallel)
			}
		})
	}
}

// TestDeterministicMultiWorkload exercises the merge with several cells
// per experiment (two workloads, multiple modes) under contention.
func TestDeterministicMultiWorkload(t *testing.T) {
	o := helloOpts("hello", "db")
	for _, name := range []string{"fig2", "table2", "fig9"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %s not registered", name)
		}
		serial := renderWith(t, e, o, &Runner{Workers: 1})
		for i := 0; i < 3; i++ {
			parallel := renderWith(t, e, o, &Runner{Workers: 8})
			if serial != parallel {
				t.Fatalf("%s: parallel render #%d differs from serial", name, i)
			}
		}
	}
}

// TestRunAllWithMatchesSerial requires the batched all-experiments path
// to reproduce the per-experiment serial reports byte for byte.
func TestRunAllWithMatchesSerial(t *testing.T) {
	o := helloOpts()
	serial, err := RunAllWith(o, serialRunner(), nil)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAllWith(o, &Runner{Workers: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if serial != parallel {
		t.Errorf("batched parallel RunAll differs from serial RunAll")
	}
}

// TestRunAllDedupesFig10 checks the fig9/fig10 cell sharing: a batched
// run over both experiments must simulate fig9's cells only once.
func TestRunAllDedupesFig10(t *testing.T) {
	o := helloOpts()
	e9, _ := Lookup("fig9")
	e10, _ := Lookup("fig10")
	p9, p10 := e9.Plan(o), e10.Plan(o)
	r := &Runner{Workers: 2}
	if err := r.RunPlans(p9, p10); err != nil {
		t.Fatal(err)
	}
	want := int64(len(p9.Keys()))
	if got := r.Simulated(); got != want {
		t.Errorf("simulated %d cells, want %d (fig10 must reuse fig9's)", got, want)
	}
	if p10.Result().Render() == "" {
		t.Error("fig10 rendered empty")
	}
}

// TestResultCache checks the persistent cache end to end: first run
// simulates, second run serves every cell from the cache with an
// identical report, changed scale invalidates, corruption degrades to
// a miss.
func TestResultCache(t *testing.T) {
	dir := t.TempDir()
	o := helloOpts()
	e, _ := Lookup("fig1")

	open := func() *ResultCache {
		c, err := OpenResultCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	r1 := &Runner{Workers: 4, Cache: open()}
	first := renderWith(t, e, o, r1)
	if r1.Simulated() == 0 {
		t.Fatal("first run simulated nothing")
	}
	if r1.CacheHits() != 0 {
		t.Fatalf("first run hit the cache %d times on an empty dir", r1.CacheHits())
	}

	r2 := &Runner{Workers: 4, Cache: open()}
	second := renderWith(t, e, o, r2)
	if r2.Simulated() != 0 {
		t.Errorf("second run re-simulated %d cells, want 0", r2.Simulated())
	}
	if r2.CacheHits() != r1.Simulated() {
		t.Errorf("second run cache hits = %d, want %d", r2.CacheHits(), r1.Simulated())
	}
	if first != second {
		t.Errorf("cached render differs from fresh render:\n--- fresh ---\n%s\n--- cached ---\n%s",
			first, second)
	}

	// A different scale is a different key: nothing should hit.
	o2 := o
	o2.Scale = o.Workloads[0].BenchN + 1
	r3 := &Runner{Workers: 4, Cache: open()}
	renderWith(t, e, o2, r3)
	if r3.CacheHits() != 0 {
		t.Errorf("changed scale still hit the cache %d times", r3.CacheHits())
	}
	if r3.Simulated() == 0 {
		t.Error("changed scale simulated nothing")
	}

	// Corrupt every stored entry: the next run must fall back to
	// simulation rather than fail.
	var corrupted int
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".json") {
			return err
		}
		corrupted++
		return os.WriteFile(path, []byte("{not json"), 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if corrupted == 0 {
		t.Fatal("no cache files found to corrupt")
	}
	r4 := &Runner{Workers: 4, Cache: open()}
	again := renderWith(t, e, o, r4)
	if r4.CacheHits() != 0 {
		t.Errorf("corrupt entries served %d hits", r4.CacheHits())
	}
	if r4.Simulated() != r1.Simulated() {
		t.Errorf("corrupt-recovery simulated %d cells, want %d", r4.Simulated(), r1.Simulated())
	}
	if again != first {
		t.Error("render after corruption recovery differs")
	}
}

// TestCheckPipeBypassesCache: a run with the pipeline checker attached
// over a result cache an unchecked run filled must simulate every
// superscalar cell, so the checker really runs, and render the same.
// (fig10 reuses fig9's cells.)
func TestCheckPipeBypassesCache(t *testing.T) {
	c, err := OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	grid := func(o Options, r *Runner) string {
		var out string
		for _, name := range []string{"fig9", "ablate-interp-ilp", "ablate-ooo"} {
			e, _ := Lookup(name)
			out += renderWith(t, e, o, r)
		}
		return out
	}
	unchecked := &Runner{Workers: 1, Cache: c}
	want := grid(helloOpts(), unchecked)
	o := helloOpts()
	o.CheckPipe = true
	checked := &Runner{Workers: 1, Cache: c}
	if got := grid(o, checked); got != want {
		t.Errorf("checked render differs from unchecked:\n--- checked ---\n%s\n--- unchecked ---\n%s", got, want)
	}
	if checked.CacheHits() != 0 || checked.Simulated() != unchecked.Simulated() {
		t.Errorf("checked run: %d simulated, %d cached; want all %d simulated",
			checked.Simulated(), checked.CacheHits(), unchecked.Simulated())
	}
}

// TestCacheAcrossFullGrid runs the whole registry twice against one
// cache directory; the second pass must not simulate a single cell.
func TestCacheAcrossFullGrid(t *testing.T) {
	dir := t.TempDir()
	o := helloOpts()

	c1, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1 := &Runner{Workers: 4, Cache: c1}
	first, err := RunAllWith(o, r1, nil)
	if err != nil {
		t.Fatal(err)
	}

	c2, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	r2 := &Runner{Workers: 4, Cache: c2}
	second, err := RunAllWith(o, r2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Simulated() != 0 {
		t.Errorf("warm grid run re-simulated %d cells, want 0", r2.Simulated())
	}
	if r2.CacheHits() == 0 {
		t.Error("warm grid run recorded no cache hits")
	}
	if first != second {
		t.Error("warm grid report differs from cold grid report")
	}
}

// TestCellKeyHash pins the content-address properties the cache relies
// on: stability for equal keys, distinctness across any field change.
func TestCellKeyHash(t *testing.T) {
	base := CellKey{Experiment: "fig1", Workload: "hello", Scale: 3, Mode: "jit", Config: "x"}
	if base.Hash() != base.Hash() {
		t.Fatal("hash not stable")
	}
	variants := []CellKey{
		{Experiment: "fig2", Workload: "hello", Scale: 3, Mode: "jit", Config: "x"},
		{Experiment: "fig1", Workload: "db", Scale: 3, Mode: "jit", Config: "x"},
		{Experiment: "fig1", Workload: "hello", Scale: 4, Mode: "jit", Config: "x"},
		{Experiment: "fig1", Workload: "hello", Scale: 3, Mode: "interp", Config: "x"},
		{Experiment: "fig1", Workload: "hello", Scale: 3, Mode: "jit", Config: "y"},
		{Experiment: "fig1", Workload: "hello", Scale: 3, Mode: "jit"},
	}
	seen := map[string]CellKey{base.Hash(): base}
	for _, v := range variants {
		h := v.Hash()
		if prev, dup := seen[h]; dup {
			t.Errorf("hash collision between %v and %v", prev, v)
		}
		seen[h] = v
	}
}

// TestProgressReportsEveryCell checks the progress callback fires once
// per unique cell with the right cached flag.
func TestProgressReportsEveryCell(t *testing.T) {
	o := helloOpts()
	e, _ := Lookup("table2")
	p := e.Plan(o)
	var mu []string
	r := &Runner{Workers: 8, Progress: func(k CellKey, cached bool) {
		if cached {
			t.Errorf("%s reported cached on a cache-less runner", k)
		}
		mu = append(mu, k.String())
	}}
	if err := r.RunPlans(p); err != nil {
		t.Fatal(err)
	}
	if len(mu) != len(p.Keys()) {
		t.Errorf("progress fired %d times, want %d", len(mu), len(p.Keys()))
	}
}
