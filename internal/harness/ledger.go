package harness

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"jrs/internal/harness/chaos"
)

// GroupState is one cell group's position in a Ledger.
type GroupState uint8

// Group states.
const (
	GroupPending  GroupState = iota // waiting to be claimed (or for its backoff)
	GroupInFlight                   // claimed by a local worker or leased to a remote one
	GroupDone                       // payload committed (at most once, ever)
	GroupFailed                     // retry budget exhausted or deterministic error
)

// LedgerConfig is the supervision policy a Ledger applies. Retries,
// BackoffBase, KeepGoing, Cache, Journal and Progress mean what the
// Runner fields of the same names mean. Chaos, when non-nil, only
// corrupts the freshly persisted cache entries of attempts it decides
// chaos.Corrupt for: execution faults are injected by
// CellGroup.Attempt, on whichever side runs the simulation.
type LedgerConfig struct {
	Retries     int
	BackoffBase time.Duration
	KeepGoing   bool
	Cache       *ResultCache
	Journal     *Journal
	Chaos       *chaos.Injector
	Progress    func(key CellKey, cached bool)
}

// Ledger is the cell-group state machine of one supervised run, shared
// by both transports: the local Runner drives it from worker goroutines,
// the dist coordinator from lease grants and result frames. It owns what
// a run decides — which group runs next, whether a failure retries, when
// a payload counts as committed, what the run error and report are — and
// none of how a group reaches its executor.
type Ledger struct {
	cfg    LedgerConfig
	plans  []*Plan
	groups []*CellGroup

	progressMu sync.Mutex // serializes Progress calls

	mu        sync.Mutex
	state     []GroupState
	attempts  []int
	notBefore []time.Time
	attempted []bool // ever claimed or cache-served (Skipped = never attempted)
	remaining int    // groups neither done nor failed
	open      int    // attempted groups neither done nor failed
	failures  []CellFailure
	first     error // run error of the earliest failed group
	firstAt   int
	simulated int64
	cacheHits int64
	retries   int64
}

// NewLedger groups the plans' cells (GroupPlans) and commits every group
// the result cache can serve before anything is claimed.
func NewLedger(cfg LedgerConfig, plans ...*Plan) *Ledger {
	groups := GroupPlans(plans...)
	n := len(groups)
	l := &Ledger{
		cfg: cfg, plans: plans, groups: groups,
		state: make([]GroupState, n), attempts: make([]int, n),
		notBefore: make([]time.Time, n), attempted: make([]bool, n),
		remaining: n,
	}
	if cfg.Cache == nil {
		return l
	}
	for i, g := range groups {
		if l.stopped() {
			break
		}
		raw, ok := cfg.Cache.Get(g.Key)
		if !ok {
			continue
		}
		l.start(i)
		if err := l.commit(i, raw, true); err != nil {
			cause, _ := Classify(err)
			l.Fail(i, cause, err, "", time.Now())
		}
	}
	return l
}

// Groups returns the run's cell groups in enumeration order; indices
// into it name groups in every other Ledger method.
func (l *Ledger) Groups() []*CellGroup { return l.groups }

// State returns group i's current state.
func (l *Ledger) State(i int) GroupState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state[i]
}

// stopped reports whether a fail-fast failure has been recorded. Called
// with l.mu held (or before the ledger is shared).
func (l *Ledger) stopped() bool { return l.first != nil && !l.cfg.KeepGoing }

// start moves group i in flight. Called with l.mu held.
func (l *Ledger) start(i int) {
	if !l.attempted[i] {
		l.attempted[i] = true
		l.open++
	}
	l.state[i] = GroupInFlight
	l.attempts[i]++
}

// settle moves pending or in-flight group i to its final state. Called
// with l.mu held.
func (l *Ledger) settle(i int, st GroupState) {
	if l.attempted[i] {
		l.open--
	}
	l.attempted[i] = true
	l.remaining--
	l.state[i] = st
}

// Claimed is one group a Claim moved in flight, with its attempt number.
type Claimed struct{ Group, Attempt int }

// Claim moves the earliest eligible pending group in flight, together
// with every other eligible pending group of the same engine spec (spec
// cells; at most limit groups in all, limit <= 0 for no bound), and
// returns them in enumeration order with their attempt numbers. A group
// is eligible once its backoff has elapsed; after a fail-fast failure
// only groups attempted before stay eligible, so claimed work finishes
// its retry budget while fresh work is skipped. With nothing eligible
// Claim returns no groups and how long until a backed-off group becomes
// eligible (0: nothing is left to claim).
func (l *Ledger) Claim(now time.Time, limit int) (batch []Claimed, wait time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	stopped := l.stopped()
	var spec engineSpec
	for i, st := range l.state {
		if st != GroupPending || (stopped && !l.attempted[i]) {
			continue
		}
		if len(batch) > 0 && l.groups[i].spec != spec {
			continue
		}
		if d := l.notBefore[i].Sub(now); d > 0 {
			if wait == 0 || d < wait {
				wait = d
			}
			continue
		}
		l.start(i)
		batch = append(batch, Claimed{Group: i, Attempt: l.attempts[i]})
		spec = l.groups[i].spec
		if spec == (engineSpec{}) || len(batch) == limit {
			break
		}
	}
	if len(batch) > 0 {
		wait = 0
	}
	return batch, wait
}

// Fail records a failed attempt of in-flight group i. A retryable cause
// with retry budget left re-queues the group behind its deterministic
// backoff and returns retry = true with that delay; anything else fails
// the group for good. worker attributes the failure in the report. A
// group no longer in flight is left alone.
func (l *Ledger) Fail(i int, cause string, err error, worker string, now time.Time) (retry bool, delay time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.state[i] != GroupInFlight {
		return false, 0
	}
	if retryableCause(cause) && l.attempts[i] <= l.cfg.Retries {
		delay = backoffDelay(l.cfg.BackoffBase, l.attempts[i])
		l.state[i] = GroupPending
		l.notBefore[i] = now.Add(delay)
		l.retries++
		return true, delay
	}
	l.settle(i, GroupFailed)
	g := l.groups[i]
	l.failures = append(l.failures, CellFailure{
		Key: g.Key, Attempts: l.attempts[i], Cause: cause, Err: err.Error(), Worker: worker, order: g.order,
	})
	if l.first == nil || g.order < l.firstAt {
		ce := &CellError{Key: g.Key, Attempts: l.attempts[i], Cause: cause, Err: err, Stack: panicStack(err)}
		l.first, l.firstAt = fmt.Errorf("%s: %w", g.Key.Experiment, ce), g.order
	}
	return false, 0
}

// Commit makes a fresh payload for group i durable — decoded into every
// destination, persisted to the result cache, appended to the journal —
// and only then marks the group done, so a cell the run counts as
// complete survives a crash. The caller must own the group: in flight on
// its goroutine, or serialized under the coordinator's lock.
func (l *Ledger) Commit(i int, raw json.RawMessage) error { return l.commit(i, raw, false) }

func (l *Ledger) commit(i int, raw json.RawMessage, cached bool) error {
	g := l.groups[i]
	if err := g.Deliver(raw); err != nil {
		return err
	}
	if c := l.cfg.Cache; c != nil && !cached {
		if err := c.Put(g.Key, raw); err != nil {
			return fmt.Errorf("%s: persist cell payload: %w", g.Key, err)
		}
		if l.cfg.Chaos != nil && l.cfg.Chaos.Decide(g.Key.String(), l.attempts[i]) == chaos.Corrupt {
			// A torn write by a crashed peer: this run's payload stays
			// good, but the stored entry must degrade to a miss next read.
			if err := c.Corrupt(g.Key.Hash()); err != nil {
				return fmt.Errorf("%s: chaos corrupt: %w", g.Key, err)
			}
		}
	}
	if j := l.cfg.Journal; j != nil {
		if err := j.Record(g.Key.Hash(), g.Key); err != nil {
			return fmt.Errorf("%s: %w", g.Key, err)
		}
	}
	l.mu.Lock()
	l.settle(i, GroupDone)
	if cached {
		l.cacheHits++
	} else {
		l.simulated++
	}
	l.mu.Unlock()
	if l.cfg.Progress != nil {
		l.progressMu.Lock()
		l.cfg.Progress(g.Key, cached)
		l.progressMu.Unlock()
	}
	return nil
}

// Drained reports whether the run is over: every group done or failed,
// or a fail-fast failure recorded and no attempted group still open.
func (l *Ledger) Drained() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.remaining == 0 || (l.stopped() && l.open == 0)
}

// Finish runs every plan's aggregation step in plan order once the run
// drained and returns the run error. Fail-fast, that is the earliest
// failed cell's (aggregation skipped) or the first failed aggregation's;
// under KeepGoing failed aggregations are reported as CauseAggregate
// failures and Finish returns nil.
func (l *Ledger) Finish() error {
	l.mu.Lock()
	stopped, first := l.stopped(), l.first
	l.mu.Unlock()
	if stopped {
		return first
	}
	cells := 0
	for _, p := range l.plans {
		cells += len(p.cells)
	}
	for k, p := range l.plans {
		err := p.Finish()
		if err == nil {
			continue
		}
		if !l.cfg.KeepGoing {
			return fmt.Errorf("%s: %w", p.experiment, err)
		}
		l.mu.Lock()
		l.failures = append(l.failures, CellFailure{
			Key:      CellKey{Experiment: p.experiment, Config: "aggregate"},
			Attempts: 1, Cause: CauseAggregate, Err: err.Error(), order: cells + k,
		})
		l.mu.Unlock()
	}
	return nil
}

// Report snapshots the run's outcome. Failures appear in enumeration
// order, independent of worker count and scheduling, so a fixed plan and
// fault spec render byte-identically.
func (l *Ledger) Report() *RunReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := &RunReport{
		Cells:     len(l.groups),
		Failed:    len(l.failures),
		Simulated: l.simulated,
		CacheHits: l.cacheHits,
		Retries:   l.retries,
		Failures:  append([]CellFailure(nil), l.failures...),
	}
	sort.SliceStable(rep.Failures, func(a, b int) bool { return rep.Failures[a].order < rep.Failures[b].order })
	for i, st := range l.state {
		if st == GroupDone {
			rep.Completed++
		}
		if !l.attempted[i] {
			rep.Skipped++
		}
	}
	return rep
}
