package harness

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"jrs/internal/jit/codecache"
)

// Failure causes, as classified by supervision. They are stable labels:
// RunReport goldens and exit-code policies key off them.
const (
	// CausePanic: the simulation panicked; isolated by recover, the
	// stack preserved on the CellError. Retryable — a panic may be the
	// footprint of injected or environmental corruption, and a bounded
	// re-attempt of a deterministic panic just fails the same way.
	CausePanic = "panic"
	// CauseTimeout: the watchdog deadline expired. Retryable.
	CauseTimeout = "timeout"
	// CauseTransient: an error tagged transient (injected faults,
	// anything implementing Transient() bool) or transient-looking I/O
	// (fs path errors from the result cache or journal). Retryable.
	CauseTransient = "transient"
	// CauseError: a deterministic simulation error. Fails fast — the
	// same inputs produce the same error, so retrying burns minutes for
	// nothing.
	CauseError = "error"
	// CauseAggregate: a plan's post-cell aggregation step failed
	// (KeepGoing mode only; otherwise it propagates as the run error).
	CauseAggregate = "aggregate"
)

// PanicError wraps a panic recovered at a supervision boundary.
type PanicError struct {
	Value any
	Stack []byte
}

func newPanicError(value any) *PanicError {
	return &PanicError{Value: value, Stack: debug.Stack()}
}

// Error renders the panic value (not the stack — the stack is
// nondeterministic and lives on CellError.Stack for humans).
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// CellError is the structured failure of one cell after supervision
// gave up: which cell, how many attempts it got, the classified cause,
// the last attempt's error, and — for panics — the captured stack.
type CellError struct {
	Key      CellKey
	Attempts int
	Cause    string
	Err      error
	Stack    string
}

// Error summarizes the failure on one line.
func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s failed (%s, %d attempt(s)): %v", e.Key, e.Cause, e.Attempts, e.Err)
}

// Unwrap exposes the final attempt's error to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// transienter is the duck type chaos (and any future fault source) uses
// to tag an error retryable without harness depending on its package.
type transienter interface{ Transient() bool }

// Classify maps an attempt error to its cause label; retryableCause
// decides what a label retries, locally and on the far side of a dist
// connection alike. Order matters: a panic wrapping a context error is
// still a panic, and a canceled parent context is a plain error.
func Classify(err error) string {
	var pe *PanicError
	var tr transienter
	var pathErr *fs.PathError
	switch {
	case errors.As(err, &pe):
		return CausePanic
	case errors.Is(err, context.DeadlineExceeded):
		return CauseTimeout
	case errors.Is(err, context.Canceled):
		return CauseError
	case errors.As(err, &tr) && tr.Transient(), errors.As(err, &pathErr):
		return CauseTransient
	}
	return CauseError
}

// retryableCause is the retry policy: panics, watchdog timeouts,
// transient I/O and injected faults retry; deterministic simulation
// errors fail fast; a canceled parent context aborts without retry.
// Unknown labels (from Classify, possibly on the far side of a network
// connection) are conservative: not retryable.
func retryableCause(cause string) bool {
	switch cause {
	case CausePanic, CauseTimeout, CauseTransient:
		return true
	}
	return false
}

// panicStack extracts the captured stack when err chains to a panic.
func panicStack(err error) string {
	var pe *PanicError
	if errors.As(err, &pe) {
		return string(pe.Stack)
	}
	return ""
}

// backoffDelay returns the deterministic exponential delay before the
// k-th retry (k >= 1): min(base << (k-1), base << 6). No jitter —
// supervised runs must replay identically. base <= 0 disables sleeping.
func backoffDelay(base time.Duration, k int) time.Duration {
	if base <= 0 {
		return 0
	}
	return base << min(k-1, 6)
}

// CellFailure is one failed cell in a RunReport — the deterministic,
// golden-safe subset of a CellError (no stacks, no pointer noise).
type CellFailure struct {
	Key      CellKey `json:"key"`
	Attempts int     `json:"attempts"`
	Cause    string  `json:"cause"`
	Err      string  `json:"err"`
	// Worker names the worker the final attempt ran on — set by the
	// distributed coordinator so a degraded run states exactly which
	// cells failed where; empty for local runs.
	Worker string `json:"worker,omitempty"`

	order int
}

// WorkerStat is one worker's contribution to a distributed run:
// how many cells it committed, how many of its attempts were retried
// elsewhere after it lost them, how often it was evicted (connection
// lost or closed while holding leases), and how many of its leases
// expired for missed heartbeats.
type WorkerStat struct {
	Worker        string `json:"worker"`
	Completed     int    `json:"completed"`
	Retries       int    `json:"retries"`
	Evictions     int    `json:"evictions"`
	HeartbeatGaps int    `json:"heartbeatGaps"`
}

// RunReport is the outcome of a supervised run: what was planned, what
// completed (and from where), what failed and why, and what was never
// attempted because a fail-fast stop fired first. In KeepGoing mode the
// report is the run's verdict; cmd/jrs renders it and exits 3 when
// Failed > 0.
type RunReport struct {
	Cells     int           `json:"cells"`
	Completed int           `json:"completed"`
	Failed    int           `json:"failed"`
	Skipped   int           `json:"skipped"`
	Simulated int64         `json:"simulated"`
	CacheHits int64         `json:"cacheHits"`
	Retries   int64         `json:"retries"`
	Failures  []CellFailure `json:"failures,omitempty"`
	// Workers is the per-worker attribution of a distributed run (nil
	// for local runs — existing reports are unchanged). Rendered sorted
	// by worker name, so a fixed outcome renders byte-identically.
	Workers []WorkerStat `json:"workers,omitempty"`
	// CodeCache snapshots the process-default shared translation cache
	// (SetCodeCache) when one is installed (nil otherwise — existing
	// reports are unchanged).
	CodeCache *codecache.Stats `json:"codeCache,omitempty"`
}

// Report snapshots the runner's supervision outcome, summed over its
// RunPlans calls. Each call's failures appear in cell enumeration order
// — independent of worker count and scheduling — so a KeepGoing report
// is deterministic for a fixed plan and fault spec.
func (r *Runner) Report() *RunReport {
	r.mu.Lock()
	rep := r.total
	r.mu.Unlock()
	rep.Failures = append([]CellFailure(nil), rep.Failures...)
	if cc := defaultCodeCache.Load(); cc != nil {
		s := cc.Stats()
		rep.CodeCache = &s
	}
	return &rep
}

// Render formats the report deterministically (fixed plan and fault
// spec ⇒ byte-identical output; CI pins a golden of it).
func (r *RunReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run report: %d cells: %d ok (%d simulated, %d cached), %d failed, %d skipped, %d retries\n",
		r.Cells, r.Completed, r.Simulated, r.CacheHits, r.Failed, r.Skipped, r.Retries)
	if r.CodeCache != nil {
		fmt.Fprintf(&b, "code cache: %s\n", r.CodeCache)
	}
	if len(r.Workers) > 0 {
		ws := append([]WorkerStat(nil), r.Workers...)
		sort.Slice(ws, func(i, j int) bool { return ws[i].Worker < ws[j].Worker })
		b.WriteString("workers:\n")
		for _, w := range ws {
			fmt.Fprintf(&b, "  %-12s %d cells, %d retried, %d eviction(s), %d heartbeat gap(s)\n",
				w.Worker, w.Completed, w.Retries, w.Evictions, w.HeartbeatGaps)
		}
	}
	if len(r.Failures) == 0 {
		b.WriteString("all cells completed\n")
		return b.String()
	}
	b.WriteString("failed cells:\n")
	for _, f := range r.Failures {
		key := f.Key.String()
		if f.Cause == CauseAggregate {
			key = f.Key.Experiment + " (aggregate)"
		}
		fmt.Fprintf(&b, "  FAIL %-40s cause=%-9s attempts=%d  %s", key, f.Cause, f.Attempts, f.Err)
		if f.Worker != "" {
			fmt.Fprintf(&b, "  worker=%s", f.Worker)
		}
		b.WriteString("\n")
	}
	return b.String()
}
