package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"jrs/internal/harness/chaos"
	"jrs/internal/workloads"
)

// CacheSchema is frozen: it is hashed into every CellKey.Hash, so the
// pinned cell hashes stay put. Never bump it — a ResultCache entry is
// stamped with the build that wrote it, and every other build misses.
const CacheSchema = 2

// CellKey identifies one independent simulation cell of the paper grid:
// which experiment needs it, which workload it runs, at what input
// scale, under which execution mode(s), and with what experiment-level
// configuration. Two cells with equal keys are interchangeable, which is
// both the dedup rule inside one run (Figure 10 reuses Figure 9's cells)
// and the content-address of the persistent result cache.
type CellKey struct {
	Experiment string `json:"experiment"`
	Workload   string `json:"workload"`
	Scale      int    `json:"scale"`
	Mode       string `json:"mode"`
	Config     string `json:"config,omitempty"`
}

// String renders the key for progress lines and debugging.
func (k CellKey) String() string {
	s := fmt.Sprintf("%s/%s@%d/%s", k.Experiment, k.Workload, k.Scale, k.Mode)
	if k.Config != "" {
		s += "/" + k.Config
	}
	return s
}

// Hash returns the content address of the cell: a hex SHA-256 over the
// schema version and every key field.
func (k CellKey) Hash() string {
	h := sha256.New()
	fmt.Fprintf(h, "jrs-cell\x00%d\x00%s\x00%s\x00%d\x00%s\x00%s",
		CacheSchema, k.Experiment, k.Workload, k.Scale, k.Mode, k.Config)
	return hex.EncodeToString(h.Sum(nil))
}

// Cell is one schedulable simulation unit: a key, how the cell simulates
// a JSON-serializable payload, and the destination the payload is
// decoded into. A cell declares its engine runs (decl; equal runs of the
// declared cells of one spec are shared) or starts its engines itself
// (sim). Every payload — fresh or cached — passes through the
// same JSON round trip, so a run never observes different values
// depending on where a cell's result came from. sim receives the
// attempt's context and must pass it down (RunCtx) so the supervisor's
// watchdog can cancel a hung simulation cooperatively.
type Cell struct {
	Key  CellKey
	sim  func(context.Context) (any, error)
	spec engineSpec
	decl func() ([]run, func() (any, error))
	dest any
}

// Plan is an experiment's enumerated grid: its cells plus the result the
// cells fill in and an optional aggregation step that runs after every
// cell completed. Cell destinations are preallocated slots in the result,
// so assembly order never depends on completion order.
type Plan struct {
	experiment string
	cells      []Cell
	result     Renderer
	finish     func() error
}

func newPlan(experiment string, result Renderer) *Plan {
	return &Plan{experiment: experiment, result: result}
}

// add appends a cell. dest must be a pointer; the cell payload (from the
// simulation or the cache) is JSON-decoded into it.
func (p *Plan) add(key CellKey, dest any, sim func(context.Context) (any, error)) {
	p.cells = append(p.cells, Cell{Key: key, sim: sim, dest: dest})
}

// Keys returns the plan's cell keys in enumeration order.
func (p *Plan) Keys() []CellKey {
	keys := make([]CellKey, len(p.cells))
	for i, c := range p.cells {
		keys[i] = c.Key
	}
	return keys
}

// Result returns the plan's (possibly not yet filled) result.
func (p *Plan) Result() Renderer { return p.result }

// resolveScale returns the effective input scale a cell runs at: Scale,
// else the workload's BenchN under Quick. The zero "workload default" is
// resolved to the concrete DefaultN so cache keys stay meaningful.
func resolveScale(o Options, w workloads.Workload) int {
	s := o.Scale
	if s == 0 && o.Quick {
		s = w.BenchN
	}
	if s == 0 {
		s = w.DefaultN
	}
	return s
}

// Runner executes plan cells on a bounded worker pool under
// supervision: Workers goroutines drive one Ledger, each attempt running
// with panic isolation (a panicking simulator becomes a structured
// CellError, not a dead process), an optional watchdog deadline, and
// bounded retry with deterministic backoff for transient failures. Every
// cell owns its engine and simulators, so cells never share mutable
// state; the merge into experiment results is deterministic because each
// cell decodes into a preallocated slot and post-aggregation runs in
// enumeration order. A Runner with Workers <= 1 degenerates to the serial
// execution order of the original per-experiment loops. A Runner holds
// no translation cache of its own: RunCtx attaches the process-default
// one (SetCodeCache) to engines, and Report includes its statistics.
type Runner struct {
	// Workers bounds concurrent cells; 0 (or negative) means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, short-circuits cells whose key hash has a
	// stored payload and persists fresh payloads for the next run.
	Cache *ResultCache
	// Progress, when non-nil, is called (serialized) as each unique cell
	// completes; cached reports whether the result came from the cache.
	Progress func(key CellKey, cached bool)

	// CellTimeout bounds one attempt of one cell (0 = no watchdog). The
	// deadline reaches the engines through the cell's context and the
	// cooperative core.Config.Cancel hook, so an expired attempt returns
	// a retryable timeout error instead of hanging its worker forever.
	CellTimeout time.Duration
	// Retries bounds re-attempts after a retryable failure (0 = fail on
	// the first error). Deterministic simulation errors never retry;
	// panics, watchdog timeouts, transient I/O and injected faults do.
	Retries int
	// BackoffBase, when positive, sleeps min(BackoffBase << (k-1),
	// BackoffBase << 6) before the k-th retry of a cell — deterministic
	// exponential backoff with no jitter, so supervised runs stay
	// reproducible. Zero disables sleeping (the library/test default).
	BackoffBase time.Duration
	// KeepGoing switches to degraded mode: instead of stopping at the
	// first failed cell, the runner drains every cell, fills all slots
	// that succeeded, and reports failures through Report(). RunPlans
	// then returns nil; callers decide what a degraded run is worth
	// (cmd/jrs exits 3).
	KeepGoing bool
	// Journal, when non-nil, records each completed cell (fsynced
	// append) and holds the cache directory's single-writer lock.
	Journal *Journal
	// Chaos, when non-nil, injects deterministic faults (panics, hangs,
	// transient errors, cache corruption) into cell attempts — the test
	// vehicle for everything above.
	Chaos *chaos.Injector

	// sleep replaces time.Sleep in tests (nil = time.Sleep).
	sleep func(time.Duration)

	mu    sync.Mutex
	total RunReport // summed over every RunPlans call
}

// CellGroup is a set of cells sharing one key: simulated (or fetched)
// once, decoded into every member's destination. The local Runner and
// the distributed coordinator/worker split the same group differently:
// the Runner does both halves in-process, a dist worker calls Attempt (it
// holds the sims) while the coordinator's Ledger commits (it holds the
// destinations).
type CellGroup struct {
	// Key identifies the cell; Key.Hash() is its wire and cache address.
	Key   CellKey
	sim   func(context.Context) (any, error)
	spec  engineSpec
	decl  func() ([]run, func() (any, error))
	dests []any
	order int // lowest cell index, for deterministic error selection
}

// Run executes the group's simulation under ctx and marshals the
// payload; a declared cell runs as a claim of one. No recovery: callers
// own their panic-isolation boundary.
func (g *CellGroup) Run(ctx context.Context) (json.RawMessage, error) {
	if g.decl != nil {
		raws, err := runClaim(ctx, []*CellGroup{g})
		if err != nil {
			return nil, err
		}
		return raws[0], nil
	}
	payload, err := g.sim(ctx)
	if err != nil {
		return nil, err
	}
	return encodePayload(g.Key, payload)
}

// encodePayload marshals cell key's payload.
func encodePayload(key CellKey, payload any) (json.RawMessage, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("%s: encode cell payload: %w", key, err)
	}
	return raw, nil
}

// Attempt makes attempt number attempt at the group in isolation: chaos
// injection (inj may be nil), Run under a watchdog deadline (timeout 0 =
// none), panic recovery into a *PanicError. An error surfacing after the
// deadline fired is reported as the deadline's, even when the engine
// dressed the cancellation in workload context, so it classifies as a
// timeout.
func (g *CellGroup) Attempt(ctx context.Context, attempt int, timeout time.Duration, inj *chaos.Injector) (raw json.RawMessage, err error) {
	err = guarded(ctx, timeout, func(ctx context.Context) error {
		if inj != nil {
			switch inj.Decide(g.Key.String(), attempt) {
			case chaos.Panic:
				panic(chaos.PanicValue{Cell: g.Key.String(), Attempt: attempt})
			case chaos.Hang:
				if _, ok := ctx.Deadline(); !ok {
					return fmt.Errorf("%s: chaos hang injected without a watchdog (set a cell timeout)", g.Key)
				}
				<-ctx.Done()
				return fmt.Errorf("%s: %w", g.Key, ctx.Err())
			case chaos.Transient:
				return &chaos.InjectedError{Cell: g.Key.String(), Attempt: attempt}
			}
		}
		var err error
		if raw, err = g.Run(ctx); err != nil && ctx.Err() != nil {
			return fmt.Errorf("%s: %w (sim: %v)", g.Key, ctx.Err(), err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return raw, nil
}

// guarded runs f under a watchdog deadline (timeout 0 = none) and
// recovers a panic into a *PanicError: the supervision boundary of one
// attempt, solo or fused.
func guarded(ctx context.Context, timeout time.Duration, f func(context.Context) error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = newPanicError(rec)
		}
	}()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	return f(ctx)
}

// Deliver decodes a payload (fresh, cached, or received over the wire)
// into every member cell's destination slot.
func (g *CellGroup) Deliver(raw json.RawMessage) error {
	for _, dest := range g.dests {
		if err := json.Unmarshal(raw, dest); err != nil {
			return fmt.Errorf("%s: decode cell payload: %w", g.Key, err)
		}
	}
	return nil
}

// GroupPlans collapses the cells of the given plans into unique groups
// in enumeration order: duplicate keys across plans (Figure 10 reuses
// Figure 9's cells) become one group with every duplicate's destination
// attached.
func GroupPlans(plans ...*Plan) []*CellGroup {
	var groups []*CellGroup
	index := make(map[string]*CellGroup)
	order := 0
	for _, p := range plans {
		for i := range p.cells {
			c := &p.cells[i]
			hash := c.Key.Hash()
			g, ok := index[hash]
			if !ok {
				g = &CellGroup{Key: c.Key, sim: c.sim, spec: c.spec, decl: c.decl, order: order}
				index[hash] = g
				groups = append(groups, g)
			}
			g.dests = append(g.dests, c.dest)
			order++
		}
	}
	return groups
}

// RunPlans executes every cell of every plan, then runs each plan's
// aggregation step in plan order. Duplicate keys across plans collapse
// to one simulation. The returned error is the one belonging to the
// earliest cell in enumeration order, independent of scheduling; in
// KeepGoing mode failures are collected into Report() instead and the
// returned error is nil.
func (r *Runner) RunPlans(plans ...*Plan) error {
	l := NewLedger(LedgerConfig{
		Retries: r.Retries, BackoffBase: r.BackoffBase,
		KeepGoing: r.KeepGoing, Cache: r.Cache, Journal: r.Journal,
		Chaos: r.Chaos, Progress: r.Progress,
	}, plans...)
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(l.groups)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.work(l)
		}()
	}
	wg.Wait()
	err := l.Finish()
	r.add(l.Report())
	return err
}

// work claims, attempts and commits groups until the ledger has nothing
// left to claim. A claim of several same-spec groups runs each of their
// equal engine runs once (runClaim, under one watchdog deadline). A member with an
// injected fault is attempted alone, so the fault fires as it would
// unfused, and if the fused run fails every member is attempted alone
// within the same claim, at the same attempt number: failures, causes
// and retries then match an unfused run. A retried group's backoff is
// slept here, by the worker whose attempt failed.
func (r *Runner) work(l *Ledger) {
	for {
		batch, wait := l.Claim(time.Now(), 0)
		if len(batch) == 0 {
			if wait == 0 {
				return
			}
			time.Sleep(wait)
			continue
		}
		var fused, solo []Claimed
		var members []*CellGroup
		for _, c := range batch {
			if g := l.groups[c.Group]; r.Chaos != nil && r.Chaos.Decide(g.Key.String(), c.Attempt) != chaos.None {
				solo = append(solo, c)
			} else {
				fused, members = append(fused, c), append(members, g)
			}
		}
		if len(fused) > 1 {
			var raws []json.RawMessage
			err := guarded(context.Background(), r.CellTimeout, func(ctx context.Context) (err error) {
				raws, err = runClaim(ctx, members)
				return err
			})
			if err == nil {
				for k, c := range fused {
					r.settle(l, c, raws[k], nil)
				}
				fused = nil
			}
		}
		for _, c := range append(fused, solo...) {
			raw, err := l.groups[c.Group].Attempt(context.Background(), c.Attempt, r.CellTimeout, r.Chaos)
			r.settle(l, c, raw, err)
		}
	}
}

// settle commits an attempt's payload, or records its error (or the
// commit's) and sleeps the retry's backoff.
func (r *Runner) settle(l *Ledger, c Claimed, raw json.RawMessage, err error) {
	if err == nil {
		err = l.Commit(c.Group, raw)
	}
	if err != nil {
		cause := Classify(err)
		if retry, delay := l.Fail(c.Group, cause, err, "", time.Now()); retry {
			r.sleepFor(delay)
		}
	}
}

// Finish runs the plan's aggregation step (if any) with panic
// isolation. A Ledger calls it in plan order once the grid drained.
func (p *Plan) Finish() (err error) {
	if p.finish == nil {
		return nil
	}
	defer func() {
		if rec := recover(); rec != nil {
			err = newPanicError(rec)
		}
	}()
	return p.finish()
}

// sleepFor waits d (0 is free), via the test hook when set.
func (r *Runner) sleepFor(d time.Duration) {
	if d <= 0 {
		return
	}
	if r.sleep != nil {
		r.sleep(d)
		return
	}
	time.Sleep(d)
}

// add folds one RunPlans call's report into the runner's totals.
func (r *Runner) add(rep *RunReport) {
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.total
	t.Cells += rep.Cells
	t.Completed += rep.Completed
	t.Failed += rep.Failed
	t.Skipped += rep.Skipped
	t.Simulated += rep.Simulated
	t.CacheHits += rep.CacheHits
	t.Retries += rep.Retries
	t.Failures = append(t.Failures, rep.Failures...)
}

// serialRunner is the default execution vehicle of Experiment.Run: one
// worker, no cache — the exact behavior of the historical
// serial loops.
func serialRunner() *Runner { return &Runner{Workers: 1} }
