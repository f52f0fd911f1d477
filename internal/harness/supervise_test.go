package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"jrs/internal/atomicfile"
	"jrs/internal/harness/chaos"
)

// intsResult is a synthetic experiment result: one int slot per cell.
type intsResult struct{ Vals []int }

func (r *intsResult) Render() string { return fmt.Sprint(r.Vals) }

// syntheticPlan builds an n-cell plan whose cell i runs sim(ctx, i).
// Keys are stable (w00, w01, ...) so chaos targeting and journal hashes
// are reproducible.
func syntheticPlan(n int, sim func(ctx context.Context, i int) (any, error)) (*Plan, *intsResult) {
	res := &intsResult{Vals: make([]int, n)}
	p := newPlan("syn", res)
	for i := 0; i < n; i++ {
		key := synKey(i)
		p.add(key, &res.Vals[i], func(ctx context.Context) (any, error) { return sim(ctx, i) })
	}
	return p, res
}

func synKey(i int) CellKey {
	return CellKey{Experiment: "syn", Workload: fmt.Sprintf("w%02d", i), Scale: 1, Mode: "m"}
}

// attemptCounter tracks per-cell attempt numbers across retries.
type attemptCounter struct {
	mu sync.Mutex
	n  map[int]int
}

func newAttemptCounter() *attemptCounter { return &attemptCounter{n: make(map[int]int)} }

func (a *attemptCounter) next(i int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n[i]++
	return a.n[i]
}

// TestPanicIsolation: a panicking cell becomes a structured CellError
// (cause, attempts, stack) instead of killing the process, and carries
// the panic value for errors.As.
func TestPanicIsolation(t *testing.T) {
	p, _ := syntheticPlan(5, func(ctx context.Context, i int) (any, error) {
		if i == 2 {
			panic("simulator bug in cell 2")
		}
		return i, nil
	})
	r := &Runner{Workers: 1}
	err := r.RunPlans(p)
	if err == nil {
		t.Fatal("panicking cell did not fail the run")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a CellError", err)
	}
	if ce.Cause != CausePanic || ce.Attempts != 1 {
		t.Errorf("cause=%s attempts=%d, want panic/1", ce.Cause, ce.Attempts)
	}
	if ce.Key != synKey(2) {
		t.Errorf("failed key = %v, want %v", ce.Key, synKey(2))
	}
	if ce.Stack == "" {
		t.Error("panic stack not captured")
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "simulator bug in cell 2" {
		t.Errorf("panic value not preserved: %v", err)
	}
}

// TestPanicRetryRecovers: a cell that panics only on its first attempt
// succeeds under Retries >= 1 and the run completes with full results.
func TestPanicRetryRecovers(t *testing.T) {
	att := newAttemptCounter()
	p, res := syntheticPlan(4, func(ctx context.Context, i int) (any, error) {
		if i == 1 && att.next(i) == 1 {
			panic("transient corruption")
		}
		return i * 10, nil
	})
	r := &Runner{Workers: 2, Retries: 1}
	if err := r.RunPlans(p); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
	for i, v := range res.Vals {
		if v != i*10 {
			t.Errorf("cell %d = %d, want %d", i, v, i*10)
		}
	}
	if r.Report().Retries != 1 {
		t.Errorf("retried = %d, want 1", r.Report().Retries)
	}
}

// TestDeterministicErrorFailsFast: plain simulation errors are not
// retried no matter the budget — same inputs, same failure.
func TestDeterministicErrorFailsFast(t *testing.T) {
	att := newAttemptCounter()
	p, _ := syntheticPlan(2, func(ctx context.Context, i int) (any, error) {
		if i == 0 {
			att.next(i)
			return nil, errors.New("bad workload input")
		}
		return i, nil
	})
	r := &Runner{Workers: 1, Retries: 5}
	err := r.RunPlans(p)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("want CellError, got %v", err)
	}
	if ce.Cause != CauseError || ce.Attempts != 1 || att.n[0] != 1 {
		t.Errorf("deterministic error retried: cause=%s attempts=%d sims=%d", ce.Cause, ce.Attempts, att.n[0])
	}
}

// transientErr is a locally tagged retryable error.
type transientErr struct{}

func (transientErr) Error() string   { return "flaky I/O" }
func (transientErr) Transient() bool { return true }

// TestTransientErrorRetries: Transient()-tagged errors retry up to the
// budget and classify as transient when exhausted.
func TestTransientErrorRetries(t *testing.T) {
	att := newAttemptCounter()
	p, _ := syntheticPlan(1, func(ctx context.Context, i int) (any, error) {
		att.next(i)
		return nil, transientErr{}
	})
	r := &Runner{Workers: 1, Retries: 2}
	err := r.RunPlans(p)
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("want CellError, got %v", err)
	}
	if ce.Cause != CauseTransient || ce.Attempts != 3 || att.n[0] != 3 {
		t.Errorf("cause=%s attempts=%d sims=%d, want transient/3/3", ce.Cause, ce.Attempts, att.n[0])
	}
}

// TestWatchdogTimeout: a hung cell (blocks until its context fires) is
// converted into a retryable timeout failure, and a hang that clears on
// retry recovers.
func TestWatchdogTimeout(t *testing.T) {
	att := newAttemptCounter()
	hang := func(ctx context.Context, i int) (any, error) {
		if i == 0 && att.next(i) == 1 {
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return i + 7, nil
	}

	p, _ := syntheticPlan(1, hang)
	r := &Runner{Workers: 1, CellTimeout: 20 * time.Millisecond}
	err := r.RunPlans(p)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Cause != CauseTimeout {
		t.Fatalf("want timeout CellError, got %v", err)
	}

	att = newAttemptCounter()
	p2, res := syntheticPlan(1, hang)
	r2 := &Runner{Workers: 1, CellTimeout: 20 * time.Millisecond, Retries: 1}
	if err := r2.RunPlans(p2); err != nil {
		t.Fatalf("hang did not clear on retry: %v", err)
	}
	if res.Vals[0] != 7 {
		t.Errorf("recovered value = %d, want 7", res.Vals[0])
	}
}

// TestWatchdogCancelsEngine: the deadline reaches a real simulation
// through core.Config.Cancel — the engine aborts cooperatively on the
// instruction-budget path rather than running to completion.
func TestWatchdogCancelsEngine(t *testing.T) {
	o := helloOpts()
	e, _ := Lookup("fig2")
	p := e.Plan(o)
	r := &Runner{Workers: 1, CellTimeout: time.Nanosecond}
	err := r.RunPlans(p)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Cause != CauseTimeout {
		t.Fatalf("want timeout CellError from engine cancellation, got %v", err)
	}
}

// TestKeepGoingDrains: degraded mode completes every healthy cell,
// reports the failed ones deterministically, and never aborts the run.
func TestKeepGoingDrains(t *testing.T) {
	build := func() (*Plan, *intsResult) {
		return syntheticPlan(6, func(ctx context.Context, i int) (any, error) {
			if i == 1 || i == 4 {
				panic(fmt.Sprintf("persistent fault in cell %d", i))
			}
			return i * 3, nil
		})
	}
	var prev string
	for trial := 0; trial < 2; trial++ {
		p, res := build()
		r := &Runner{Workers: 3, Retries: 1, KeepGoing: true}
		if err := r.RunPlans(p); err != nil {
			t.Fatalf("keepgoing returned error: %v", err)
		}
		for _, i := range []int{0, 2, 3, 5} {
			if res.Vals[i] != i*3 {
				t.Errorf("healthy cell %d = %d, want %d", i, res.Vals[i], i*3)
			}
		}
		rep := r.Report()
		if rep.Cells != 6 || rep.Failed != 2 || rep.Completed != 4 || rep.Skipped != 0 {
			t.Errorf("report = %+v, want 6 cells / 2 failed / 4 completed / 0 skipped", rep)
		}
		if rep.Retries != 2 {
			t.Errorf("report retries = %d, want 2 (one per failed cell)", rep.Retries)
		}
		if len(rep.Failures) != 2 {
			t.Fatalf("failures = %+v, want 2", rep.Failures)
		}
		if rep.Failures[0].Key != synKey(1) || rep.Failures[1].Key != synKey(4) {
			t.Errorf("failures not in enumeration order: %+v", rep.Failures)
		}
		out := rep.Render()
		if trial > 0 && out != prev {
			t.Errorf("report render not deterministic:\n%s\nvs\n%s", out, prev)
		}
		prev = out
	}
}

// TestFailFastAccounting pins the early-stop contract: once claimed, a
// cell runs to completion and records its outcome — nothing in flight
// is silently dropped — and the report partitions every cell into
// completed, failed, or skipped.
func TestFailFastAccounting(t *testing.T) {
	p, _ := syntheticPlan(16, func(ctx context.Context, i int) (any, error) {
		if i == 0 {
			return nil, errors.New("fatal cell")
		}
		time.Sleep(time.Millisecond) // keep peers in flight when the failure lands
		return i, nil
	})
	var progress int
	r := &Runner{Workers: 2}
	r.Progress = func(CellKey, bool) { progress++ }
	if err := r.RunPlans(p); err == nil {
		t.Fatal("fail-fast run returned nil")
	}
	rep := r.Report()
	if rep.Completed+rep.Failed+rep.Skipped != rep.Cells {
		t.Errorf("report does not partition cells: %+v", rep)
	}
	if int64(progress) != rep.Simulated+rep.CacheHits {
		t.Errorf("progress fired %d times, want %d: in-flight outcomes dropped",
			progress, rep.Simulated+rep.CacheHits)
	}
	if int64(rep.Completed) != rep.Simulated {
		t.Errorf("completed = %d but simulated = %d", rep.Completed, rep.Simulated)
	}
	if rep.Failed != 1 {
		t.Errorf("failed = %d, want 1", rep.Failed)
	}
}

// TestChaosGoldenEquality is the tentpole acceptance test: a real
// experiment grid under injected panics, hangs and transient errors
// (fixed seed) must, with retries and a watchdog, render byte-identical
// output to a fault-free run.
func TestChaosGoldenEquality(t *testing.T) {
	o := helloOpts()
	for _, name := range []string{"fig2", "table2"} {
		e, _ := Lookup(name)
		clean := renderWith(t, e, o, &Runner{Workers: 4})

		spec := chaos.Spec{Seed: 1, PanicRate: 0.3, HangRate: 0.2, ErrRate: 0.3, UpTo: 1}
		inj := chaos.New(spec)
		// The test is vacuous if the seed faults nothing: check the
		// plan's cells against the injector directly.
		faults := 0
		for _, k := range e.Plan(o).Keys() {
			if inj.Decide(k.String(), 1) != chaos.None {
				faults++
			}
		}
		if faults == 0 {
			t.Fatalf("%s: chaos spec %v injects nothing into this plan; raise rates", name, spec)
		}

		chaotic := &Runner{Workers: 4, Retries: 3, CellTimeout: 2 * time.Second, Chaos: inj}
		out := renderWith(t, e, o, chaotic)
		if out != clean {
			t.Errorf("%s: chaotic render differs from clean render", name)
		}
		if chaotic.Report().Retries == 0 {
			t.Errorf("%s: %d faults injected but nothing retried", name, faults)
		}
	}
}

// TestChaosCorruptCacheRecovery: injected cache corruption (torn
// writes) must never poison results — the corrupted entries degrade to
// misses and the next run re-simulates them to an identical render.
func TestChaosCorruptCacheRecovery(t *testing.T) {
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
	inj := chaos.New(chaos.Spec{Seed: 1, CorruptRate: 1, UpTo: 1})
	r1 := &Runner{Workers: 2, Cache: open(), Chaos: inj}
	first := renderWith(t, e, o, r1)

	r2 := &Runner{Workers: 2, Cache: open()}
	second := renderWith(t, e, o, r2)
	if r2.Report().CacheHits != 0 {
		t.Errorf("corrupted entries served %d hits", r2.Report().CacheHits)
	}
	if r2.Report().Simulated != r1.Report().Simulated {
		t.Errorf("recovery simulated %d cells, want %d", r2.Report().Simulated, r1.Report().Simulated)
	}
	if first != second {
		t.Error("render after torn-write recovery differs")
	}
}

// plantEntry hand-writes a result-cache envelope for k, stamped with
// build, bypassing the cache.
func plantEntry(t *testing.T, dir string, k CellKey, build, payload string) {
	t.Helper()
	data, err := json.Marshal(struct {
		Build   string          `json:"build"`
		Key     CellKey         `json:"key"`
		Payload json.RawMessage `json:"payload"`
	}{build, k, json.RawMessage(payload)})
	if err != nil {
		t.Fatal(err)
	}
	h := k.Hash()
	if err := os.MkdirAll(filepath.Join(dir, h[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, h[:2], h+".json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResultCacheForeignBuildMisses: an entry stamped with another
// build is a miss, and the same hand-written envelope stamped with this
// build is a hit.
func TestResultCacheForeignBuildMisses(t *testing.T) {
	dir := t.TempDir()
	plantEntry(t, dir, synKey(0), "another-build", `{"v":1}`)
	plantEntry(t, dir, synKey(1), atomicfile.Build(), `{"v":1}`)
	c, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if raw, ok := c.Get(synKey(0)); ok {
		t.Errorf("foreign-build entry served as a hit: %s", raw)
	}
	if raw, ok := c.Get(synKey(1)); !ok || string(raw) != `{"v":1}` {
		t.Errorf("this build's entry = %q ok=%v, want a hit", raw, ok)
	}
}

// TestResumeAfterInterruption: a run killed by an injected panic after
// N cells, re-run on the same cache directory, re-simulates exactly
// total-N cells — ignoring an entry planted by another build — and
// renders byte-identically to an uninterrupted run.
func TestResumeAfterInterruption(t *testing.T) {
	dir := t.TempDir()
	sim := func(ctx context.Context, i int) (any, error) { return i * i, nil }
	const total = 6

	// The uninterrupted reference render.
	refPlan, refRes := syntheticPlan(total, sim)
	if err := (&Runner{Workers: 1}).RunPlans(refPlan); err != nil {
		t.Fatal(err)
	}
	ref := refRes.Render()

	open := func() (*ResultCache, *Journal) {
		c, err := OpenResultCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(filepath.Join(dir, JournalName))
		if err != nil {
			t.Fatal(err)
		}
		return c, j
	}

	// First run: serial, killed by an injected panic at cell w03 —
	// cells w00..w02 complete and journal, w03 fails, w04/w05 skip.
	cache, journal := open()
	p1, _ := syntheticPlan(total, sim)
	r1 := &Runner{Workers: 1, Cache: cache, Journal: journal,
		Chaos: chaos.New(chaos.Spec{Seed: 1, PanicRate: 1, UpTo: 99, Cell: "syn/w03@"})}
	err := r1.RunPlans(p1)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Cause != CausePanic {
		t.Fatalf("interruption did not happen: %v", err)
	}
	const n = 3
	if got := r1.Report().Simulated; got != n {
		t.Fatalf("interrupted run simulated %d cells, want %d", got, n)
	}
	if journal.Len() != n {
		t.Fatalf("journal records %d cells, want %d", journal.Len(), n)
	}
	journal.Close()

	// An entry another build wrote must be ignored by the rerun: plant
	// a wrong payload for w04 under a foreign build stamp.
	plantEntry(t, dir, synKey(4), "another-build", "999")

	// Rerun: only this build's entries are trusted; exactly total-n
	// cells re-simulate and the render matches the uninterrupted run.
	cache2, journal2 := open()
	defer journal2.Close()
	p2, res2 := syntheticPlan(total, sim)
	r2 := &Runner{Workers: 1, Cache: cache2, Journal: journal2}
	if err := r2.RunPlans(p2); err != nil {
		t.Fatalf("rerun failed: %v", err)
	}
	if got := r2.Report().Simulated; got != total-n {
		t.Errorf("rerun re-simulated %d cells, want %d", got, total-n)
	}
	if got := r2.Report().CacheHits; got != n {
		t.Errorf("rerun served %d cells from cache, want %d", got, n)
	}
	if out := res2.Render(); out != ref {
		t.Errorf("rerun render %q differs from uninterrupted %q", out, ref)
	}
}

// TestBackoffDeterministic pins the retry delay schedule, its cap at
// 64× the base, and checks the runner sleeps it via the hook.
func TestBackoffDeterministic(t *testing.T) {
	base := 10 * time.Millisecond
	want := []time.Duration{10, 20, 40, 80, 160, 320, 640, 640, 640}
	for k, w := range want {
		if got := backoffDelay(base, k+1); got != w*time.Millisecond {
			t.Errorf("backoffDelay(k=%d) = %v, want %v", k+1, got, w*time.Millisecond)
		}
	}
	if got := backoffDelay(base, 40); got != 640*time.Millisecond {
		t.Errorf("backoffDelay(k=40) = %v, want the 640ms cap", got)
	}
	if got := backoffDelay(0, 3); got != 0 {
		t.Errorf("zero base must not sleep, got %v", got)
	}

	var slept []time.Duration
	p, _ := syntheticPlan(1, func(ctx context.Context, i int) (any, error) {
		return nil, transientErr{}
	})
	r := &Runner{Workers: 1, Retries: 3, BackoffBase: base}
	r.sleep = func(d time.Duration) { slept = append(slept, d) }
	if err := r.RunPlans(p); err == nil {
		t.Fatal("always-failing cell succeeded")
	}
	if fmt.Sprint(slept) != "[10ms 20ms 40ms]" {
		t.Errorf("slept %v, want [10ms 20ms 40ms]", slept)
	}
}

// TestResultCachePutCrashSafety: normal operation leaves no temp
// litter, and a torn write (Corrupt) degrades to a miss that a fresh
// Put repairs — the satellite crash-safety contract.
func TestResultCachePutCrashSafety(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenResultCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := synKey(0)
	if err := c.Put(key, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*", "*.tmp.*")); len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("stored entry not readable")
	}
	if err := c.Corrupt(key.Hash()); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(key); ok {
		t.Error("torn entry served as a hit")
	}
	if err := c.Put(key, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if raw, ok := c.Get(key); !ok || string(raw) != `{"v":1}` {
		t.Errorf("repaired entry = %q ok=%v", raw, ok)
	}
}

// errTransient is a minimal Transient()-tagged error for the table test.
type errTransient struct{}

func (errTransient) Error() string   { return "flaky io" }
func (errTransient) Transient() bool { return true }

// errNotTransient implements the duck type but answers false — it must
// classify as a deterministic error.
type errNotTransient struct{}

func (errNotTransient) Error() string   { return "tagged but deterministic" }
func (errNotTransient) Transient() bool { return false }

// TestClassifyTable pins the classification and the retry rule on it:
// one case per failure class, including wrapped errors (the common shape
// after fmt.Errorf("%s: %w", ...)) and the not-retryable edge cases. The
// local runner and the distributed coordinator share Classify and
// retryableCause, so these rows are contract.
func TestClassifyTable(t *testing.T) {
	wrap := func(err error) error { return fmt.Errorf("cell x: %w", err) }
	cases := []struct {
		name      string
		err       error
		cause     string
		retryable bool
	}{
		{"panic", newPanicError("boom"), CausePanic, true},
		{"wrapped panic", wrap(newPanicError("boom")), CausePanic, true},
		{"deadline", context.DeadlineExceeded, CauseTimeout, true},
		{"wrapped deadline", wrap(context.DeadlineExceeded), CauseTimeout, true},
		{"canceled", context.Canceled, CauseError, false},
		{"wrapped canceled", wrap(context.Canceled), CauseError, false},
		{"transient tag", errTransient{}, CauseTransient, true},
		{"wrapped transient tag", wrap(errTransient{}), CauseTransient, true},
		{"transient tag false", errNotTransient{}, CauseError, false},
		{"injected chaos", &chaos.InjectedError{Cell: "c", Attempt: 1}, CauseTransient, true},
		{"fs path error", &fs.PathError{Op: "open", Path: "x", Err: errors.New("eio")}, CauseTransient, true},
		{"plain error", errors.New("bad input"), CauseError, false},
		{"panic wrapping cancel stays panic", newPanicError(context.Canceled), CausePanic, true},
	}
	for _, tc := range cases {
		cause := Classify(tc.err)
		if retryable := retryableCause(cause); cause != tc.cause || retryable != tc.retryable {
			t.Errorf("%s: Classify = %s (retryable %v), want %s (retryable %v)", tc.name, cause, retryable, tc.cause, tc.retryable)
		}
	}
	if retryableCause("no-such-cause") {
		t.Error("unknown cause labels must not be retryable")
	}
	if retryableCause(CauseAggregate) {
		t.Error("aggregate failures must not be retryable")
	}
}

// TestWorkerAttributionRender: per-worker stats render sorted by worker
// name regardless of slice order, and failure lines carry the worker
// when one is attributed.
func TestWorkerAttributionRender(t *testing.T) {
	rep := &RunReport{
		Cells: 4, Completed: 3, Failed: 1, Simulated: 3, Retries: 2,
		Workers: []WorkerStat{
			{Worker: "w2", Completed: 1, Retries: 1, Evictions: 1, HeartbeatGaps: 1},
			{Worker: "w1", Completed: 2},
		},
		Failures: []CellFailure{{Key: synKey(3), Attempts: 2, Cause: CauseTimeout, Err: "lease expired", Worker: "w2"}},
	}
	out := rep.Render()
	iw1, iw2 := strings.Index(out, "w1"), strings.Index(out, "w2")
	if iw1 < 0 || iw2 < 0 || iw1 > iw2 {
		t.Errorf("workers not rendered in sorted order:\n%s", out)
	}
	if !strings.Contains(out, "worker=w2") {
		t.Errorf("failure line lost its worker attribution:\n%s", out)
	}
	if rep2 := (&RunReport{Cells: 1, Completed: 1, Simulated: 1}); strings.Contains(rep2.Render(), "workers:") {
		t.Error("local reports must not grow a workers section")
	}
}
