package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"jrs/internal/atomicfile"
	"jrs/internal/harness"
	"jrs/internal/harness/chaos"
)

// reconnectDelay paces a worker's re-dials after a lost connection.
const reconnectDelay = 20 * time.Millisecond

// errKilled marks a chaos-injected worker death: the worker abandons
// its connection (and any lease it holds) and comes back as a fresh
// connection of the same identity — the wire-level model of a worker
// process crashing and being respawned.
var errKilled = errors.New("dist: chaos killed worker")

// Worker executes leased cells. It holds the cell declarations —
// re-enumerated from the shared experiment registry per grid spec — and
// runs each leased cell through harness.CellGroup.Attempt, the same
// attempt the local runner makes; classification happens here and ships
// to the coordinator as a cause label.
type Worker struct {
	// Name is the worker's stable identity across reconnects.
	Name string
	// Dial opens a connection to the coordinator. Called again after
	// every connection loss — pointing it at a changed address is how a
	// restarted coordinator's workers find it.
	Dial func() (net.Conn, error)
	// CellTimeout bounds one attempt of one cell (0 = no watchdog).
	CellTimeout time.Duration
	// Chaos, when non-nil, injects cell-level faults (panics, hangs,
	// transient errors) into attempts — same injector as the local
	// runner, so a chaos spec means the same thing locally and remotely.
	Chaos *chaos.Injector
	// Net, when non-nil, injects frame-level network faults (drops,
	// delays, duplications) and whole-worker kills.
	Net *chaos.NetInjector
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)

	mu    sync.Mutex
	plans map[string]map[string]*harness.CellGroup // grid canonical → key hash → group
}

// Run works the lease loop until ctx is canceled: dial, hello, then
// request-execute-deliver, reconnecting with a paced retry after every
// connection loss (including its own chaos kills). A refusal ends it:
// Run returns an error wrapping ErrRefused without re-dialing.
func (w *Worker) Run(ctx context.Context) error {
	logf := w.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := w.Dial()
		if err != nil {
			logf("dist: worker %s: dial: %v", w.Name, err)
			if !sleepCtx(ctx, reconnectDelay) {
				return ctx.Err()
			}
			continue
		}
		err = w.session(ctx, conn)
		conn.Close()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if errors.Is(err, ErrRefused) {
			return fmt.Errorf("worker %s: %w", w.Name, err)
		}
		if err != nil {
			logf("dist: worker %s: session: %v", w.Name, err)
		}
		if !sleepCtx(ctx, reconnectDelay) {
			return ctx.Err()
		}
	}
}

// session runs the lockstep lease protocol over one connection until an
// error (or chaos kill) resets it.
func (w *Worker) session(ctx context.Context, conn net.Conn) error {
	fc := newFrameConn(conn, w.Net, w.Name)
	if err := fc.write(MsgHello, Hello{Worker: w.Name, Build: atomicfile.Build()}); err != nil {
		return err
	}
	var seq uint64
	for ctx.Err() == nil {
		seq++
		if err := fc.write(MsgLeaseReq, LeaseReq{Seq: seq, Worker: w.Name}); err != nil {
			return err
		}
		t, payload, err := fc.awaitSeq(seq)
		if err != nil {
			return err
		}
		switch t {
		case MsgWait:
			var wt Wait
			if err := DecodeInto(payload, &wt); err != nil {
				return err
			}
			if !sleepCtx(ctx, time.Duration(wt.Millis)*time.Millisecond) {
				return ctx.Err()
			}
		case MsgLease:
			var l Lease
			if err := DecodeInto(payload, &l); err != nil {
				return err
			}
			if w.Net != nil && w.Net.Kill(w.Name, l.LeaseID) {
				// Die holding the lease: the coordinator's expiry (or
				// the connection-loss eviction) must recover the cell.
				return errKilled
			}
			res := w.execute(ctx, fc, l)
			seq++
			res.Seq = seq
			if err := fc.write(MsgResult, res); err != nil {
				return err
			}
			t2, p2, err := fc.awaitSeq(seq)
			if err != nil {
				return err
			}
			var ack Ack
			if t2 != MsgAck {
				return fmt.Errorf("%w: expected ack, got %s", ErrFrame, t2)
			}
			if err := DecodeInto(p2, &ack); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: expected lease or wait, got %s", ErrFrame, t)
		}
	}
	return ctx.Err()
}

// execute runs one leased cell, heartbeating while it works so a slow
// cell doesn't read as a dead worker.
func (w *Worker) execute(ctx context.Context, fc *frameConn, l Lease) Result {
	res := Result{Worker: w.Name, LeaseID: l.LeaseID, Key: l.Key}
	g, err := w.group(l.Grid, l.Key)
	if err != nil {
		res.ErrMsg, res.Cause = err.Error(), harness.CauseError
		return res
	}
	stop := w.heartbeat(fc, l)
	raw, err := g.Attempt(ctx, l.Attempt, w.CellTimeout, w.Chaos)
	stop()
	if err != nil {
		cause := harness.Classify(err)
		res.ErrMsg, res.Cause = err.Error(), cause
		return res
	}
	res.Payload = raw
	return res
}

// heartbeat renews the worker's leases at a third of the lease TTL for
// the duration of one cell attempt. Heartbeats are fire-and-forget, so
// they interleave safely with the lockstep request cycle (frameConn's
// write mutex keeps frames atomic); a failed heartbeat write is ignored
// — the session notices the dead connection on its next exchange, and
// lease expiry covers the gap.
func (w *Worker) heartbeat(fc *frameConn, l Lease) (stop func()) {
	every := time.Duration(l.TTLMillis) * time.Millisecond / 3
	if every <= 0 {
		every = time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				fc.write(MsgHeartbeat, Heartbeat{Worker: w.Name})
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// group resolves a cell key against the grid's enumerated plans,
// building (and caching) the plan set on first sight of a grid spec.
// Coordinator and worker run the same registry code, so a key enumerated
// there resolves to the same cell declaration here.
func (w *Worker) group(grid GridSpec, key harness.CellKey) (*harness.CellGroup, error) {
	canon := grid.Canonical()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.plans == nil {
		w.plans = make(map[string]map[string]*harness.CellGroup)
	}
	m, ok := w.plans[canon]
	if !ok {
		_, plans, _, err := enumerate(grid)
		if err != nil {
			return nil, err
		}
		m = make(map[string]*harness.CellGroup)
		for _, g := range harness.GroupPlans(plans...) {
			m[g.Key.Hash()] = g
		}
		w.plans[canon] = m
	}
	g, ok := m[key.Hash()]
	if !ok {
		return nil, fmt.Errorf("dist: cell %s not in grid %s", key, canon)
	}
	return g, nil
}

// sleepCtx sleeps d or until ctx cancels; reports whether the full
// sleep happened.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
