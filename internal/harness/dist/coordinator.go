package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"jrs/internal/atomicfile"
	"jrs/internal/harness"
)

// Config parameterizes a Coordinator. The retry, cache and journal
// fields are the harness.LedgerConfig the coordinator's jobs run under —
// the same policy harness.Runner applies, to cells that run on the far
// side of a socket.
type Config struct {
	// LeaseTTL bounds how long a worker may sit on a cell without
	// delivering a result or a heartbeat before the coordinator revokes
	// the lease and re-queues the cell. 0 = 10s. A worker silent (no
	// frames at all) for three TTLs has its connections closed — the
	// missed-beat eviction policy.
	LeaseTTL time.Duration
	// Retries bounds re-attempts per cell after a retryable failure,
	// exactly like Runner.Retries. Lease expiry and worker eviction
	// classify as timeouts, which are retryable.
	Retries int
	// BackoffBase gives the deterministic exponential delay before a
	// cell's k-th re-lease (no jitter), as Runner.BackoffBase does.
	BackoffBase time.Duration
	// KeepGoing drains every cell despite failures and reports them,
	// instead of stopping the grid at the first failed cell.
	KeepGoing bool
	// WaitMillis is the backoff the coordinator hands a worker when
	// nothing is grantable. 0 = 10ms.
	WaitMillis int64
	// Cache, when non-nil, serves already-computed cells without
	// leasing them and persists every committed payload.
	Cache *harness.ResultCache
	// Journal, when non-nil, records each committed cell (fsynced) and
	// holds the cache directory's single-writer lock. The coordinator
	// owns the journal once passed: Stop closes it.
	Journal *harness.Journal
	// CrashAfterCommits, when positive, stops the coordinator cold
	// (listener and every connection closed, journal released) after
	// that many result commits — the crash-restart test hook.
	CrashAfterCommits int64
	// Logf receives progress lines (nil = silent).
	Logf func(format string, args ...any)
}

// job is one submitted grid: the enumerated plans and the ledger that
// schedules their cell groups. The coordinator runs jobs FIFO; only the
// head of the queue grants leases.
type job struct {
	grid       GridSpec
	exps       []harness.Experiment
	headerMode bool // render with "## name — desc" section headers
	plans      []*harness.Plan
	ledger     *harness.Ledger
	index      map[string]int // Key.Hash() → group index

	workers []harness.WorkerStat // snapshot taken at completion
	doneCh  chan Output
}

// connState is one accepted connection. Responses are written by the
// connection's own read goroutine (the protocol is lockstep per
// connection), so wmu only guards against future cross-goroutine use.
// greeted is set once the peer's Hello carried this process's build;
// only a greeted connection is granted leases.
type connState struct {
	c       net.Conn
	wmu     sync.Mutex
	worker  string
	greeted bool
}

func (cs *connState) send(t MsgType, msg any) error {
	cs.wmu.Lock()
	defer cs.wmu.Unlock()
	return WriteFrame(cs.c, t, msg)
}

// Coordinator owns the grid: it enumerates submitted experiments into
// cell groups, leases them to workers, and merges results back in
// enumeration order — so the rendered output is byte-identical to a
// serial local run no matter how many workers raced, died, or
// re-delivered along the way.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*connState]bool
	table   *leaseTable
	jobs    []*job // jobs[0] is active
	commits int64
	crashed bool
	closed  bool
	done    chan struct{} // closed by Stop; wakes the sweeper and parked submitters

	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator builds a coordinator with defaults applied.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.WaitMillis <= 0 {
		cfg.WaitMillis = 10
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	return &Coordinator{
		cfg:   cfg,
		conns: make(map[*connState]bool),
		table: newLeaseTable(),
		done:  make(chan struct{}),
	}
}

// Start listens on addr ("host:port"; ":0" picks a free port), serves
// connections and runs the lease sweeper until Stop. It returns the
// bound address.
func (c *Coordinator) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("dist: listen: %w", err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		ln.Close()
		return "", errors.New("dist: coordinator stopped")
	}
	c.ln = ln
	c.mu.Unlock()
	c.wg.Add(2)
	go c.acceptLoop(ln)
	go c.sweep()
	return ln.Addr().String(), nil
}

// Stop kills the coordinator: listener and every connection closed,
// journal closed (releasing its writer lock). In-flight jobs get no
// answer — their clients see a connection reset, exactly as if the
// process died. A restart on the same cache directory serves the
// committed cells from the result cache. Concurrent and repeated Stops
// are safe: every caller returns only once teardown has fully finished
// (sync.Once blocks late callers until the first finishes).
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		close(c.done)
		ln := c.ln
		var conns []*connState
		for cs := range c.conns {
			conns = append(conns, cs)
		}
		c.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		for _, cs := range conns {
			cs.c.Close()
		}
		c.wg.Wait()
		if c.cfg.Journal != nil {
			c.cfg.Journal.Close()
		}
	})
}

// Committed returns how many results the coordinator has committed —
// the crash hook's progress meter, exposed for tests.
func (c *Coordinator) Committed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commits
}

func (c *Coordinator) acceptLoop(ln net.Listener) {
	defer c.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		cs := &connState{c: conn}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns[cs] = true
		c.mu.Unlock()
		c.wg.Add(1)
		go c.handleConn(cs)
	}
}

// sweep periodically expires overdue leases and evicts silent workers.
func (c *Coordinator) sweep() {
	defer c.wg.Done()
	every := c.cfg.LeaseTTL / 4
	if every < time.Millisecond {
		every = time.Millisecond
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return
		}
		now := time.Now()
		for _, l := range c.table.expired(now) {
			if w, ok := c.table.workers[l.worker]; ok {
				w.stat.HeartbeatGaps++
			}
			c.loseLease(l, now, fmt.Sprintf("lease %d expired on worker %s (missed heartbeats)", l.id, l.worker))
		}
		var evict []*connState
		for _, w := range c.table.workers {
			if now.Sub(w.lastSeen) > 3*c.cfg.LeaseTTL && len(w.conns) > 0 {
				for cs := range w.conns {
					evict = append(evict, cs)
				}
			}
		}
		c.mu.Unlock()
		for _, cs := range evict {
			c.cfg.Logf("dist: evicting silent worker connection %s", cs.worker)
			cs.c.Close() // handleConn's exit path reclaims its leases
		}
	}
}

// loseLease re-queues (or fails) the group of a lease whose worker is
// gone: on the ledger, a lost lease is a timeout failure. Called with
// c.mu held, the lease already out of the table. A group that committed
// meanwhile (its payload arrived by key) is left alone.
//
// A group leaves flight only through its own lease's release (this
// path, or commitResult), or by committing, so a group in flight has
// exactly one live lease and no failure is ever counted twice.
func (c *Coordinator) loseLease(l *lease, now time.Time, msg string) {
	j := c.active()
	if j == nil {
		return
	}
	if j.ledger.State(l.group) == harness.GroupInFlight {
		c.cfg.Logf("dist: %s: %s", j.ledger.Groups()[l.group].Key, msg)
		c.fail(j, l.group, harness.CauseTimeout, errors.New(msg), l.worker, now)
	}
	c.checkComplete()
}

// fail records a failed attempt of in-flight group idx on the ledger and
// returns the ack for it, crediting a retry to the worker that lost it.
// Called with c.mu held.
func (c *Coordinator) fail(j *job, idx int, cause string, err error, worker string, now time.Time) string {
	if retry, _ := j.ledger.Fail(idx, cause, err, worker, now); !retry {
		return AckFailed
	}
	if w, ok := c.table.workers[worker]; ok {
		w.stat.Retries++
	}
	return AckRetry
}

// handleConn is one connection's read loop. The per-connection protocol
// is lockstep (request, response) with fire-and-forget heartbeats
// interleaved; any frame error resets the connection.
func (c *Coordinator) handleConn(cs *connState) {
	defer c.wg.Done()
	defer func() {
		cs.c.Close()
		c.mu.Lock()
		delete(c.conns, cs)
		c.evictConnLocked(cs)
		c.mu.Unlock()
	}()
	br := bufio.NewReader(cs.c)
	for {
		t, payload, err := ReadFrame(br)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				c.cfg.Logf("dist: conn %s: %v", cs.worker, err)
			}
			return
		}
		switch t {
		case MsgHello:
			var h Hello
			if DecodeInto(payload, &h) != nil {
				return
			}
			if h.Build != atomicfile.Build() {
				// A worker built from other code would commit cells
				// this build might simulate differently.
				c.cfg.Logf("dist: refusing worker %s: build %.12s, coordinator build %.12s", h.Worker, h.Build, atomicfile.Build())
				return
			}
			cs.greeted = true
			c.registerWorker(cs, h.Worker)
		case MsgHeartbeat:
			var hb Heartbeat
			if DecodeInto(payload, &hb) != nil {
				return
			}
			c.mu.Lock()
			c.table.renew(hb.Worker, time.Now(), c.cfg.LeaseTTL)
			c.mu.Unlock()
		case MsgLeaseReq:
			var req LeaseReq
			if DecodeInto(payload, &req) != nil {
				return
			}
			if !cs.greeted {
				c.cfg.Logf("dist: conn %s: lease request without an accepted hello", req.Worker)
				return
			}
			c.registerWorker(cs, req.Worker)
			if err := c.answerLeaseReq(cs, req); err != nil {
				return
			}
		case MsgResult:
			var res Result
			if DecodeInto(payload, &res) != nil {
				return
			}
			status := c.commitResult(res)
			if err := cs.send(MsgAck, Ack{Seq: res.Seq, Status: status}); err != nil {
				return
			}
		case MsgSubmit:
			var sub SubmitReq
			if DecodeInto(payload, &sub) != nil {
				return
			}
			out, ok := c.runJob(sub.Grid)
			if !ok {
				// Coordinator died mid-job: the client must observe a
				// connection reset, never a reply.
				return
			}
			out.Seq = sub.Seq
			if err := cs.send(MsgOutput, out); err != nil {
				return
			}
		default:
			c.cfg.Logf("dist: conn %s: unexpected %s frame", cs.worker, t)
			return
		}
	}
}

// registerWorker binds a connection to a worker identity.
func (c *Coordinator) registerWorker(cs *connState, name string) {
	if name == "" {
		return
	}
	c.mu.Lock()
	cs.worker = name
	c.table.worker(name, time.Now()).conns[cs] = true
	c.mu.Unlock()
}

// evictConnLocked reclaims every lease granted on a dead connection:
// the worker was evicted (or died), so its cells go back in the queue.
// Called with c.mu held.
func (c *Coordinator) evictConnLocked(cs *connState) {
	if w, ok := c.table.workers[cs.worker]; ok {
		delete(w.conns, cs)
	}
	lost := c.table.byConn(cs)
	if len(lost) == 0 {
		return
	}
	if w, ok := c.table.workers[cs.worker]; ok {
		w.stat.Evictions++
	}
	now := time.Now()
	for _, l := range lost {
		c.loseLease(l, now, fmt.Sprintf("worker %s evicted (connection lost)", l.worker))
	}
}

// active returns the job currently granting leases (nil when idle).
// Called with c.mu held.
func (c *Coordinator) active() *job {
	if len(c.jobs) == 0 {
		return nil
	}
	return c.jobs[0]
}

// answerLeaseReq grants the ledger's earliest eligible group, or tells
// the worker to wait. A lease carries one group, so claims are batches
// of one: same-spec groups are not fused across the wire.
func (c *Coordinator) answerLeaseReq(cs *connState, req LeaseReq) error {
	c.mu.Lock()
	j := c.active()
	now := time.Now()
	grant, attempt := -1, 0
	if j != nil {
		if batch, _ := j.ledger.Claim(now, 1); len(batch) == 1 {
			grant, attempt = batch[0].Group, batch[0].Attempt
		}
	}
	if grant < 0 {
		c.mu.Unlock()
		return cs.send(MsgWait, Wait{Seq: req.Seq, Millis: c.cfg.WaitMillis})
	}
	l := c.table.grant(grant, req.Worker, cs, now, c.cfg.LeaseTTL)
	lease := Lease{
		Seq:       req.Seq,
		LeaseID:   l.id,
		Key:       j.ledger.Groups()[grant].Key,
		Attempt:   attempt,
		TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		Grid:      j.grid,
	}
	c.mu.Unlock()
	c.cfg.Logf("dist: lease %d: %s → %s (attempt %d)", l.id, lease.Key, req.Worker, lease.Attempt)
	return cs.send(MsgLease, lease)
}

// commitResult merges one delivered result. Commit is at-most-once per
// cell: the first successful delivery — whoever's lease it rode in on,
// however late or duplicated — commits the group on the ledger (deliver,
// cache, journal, done), and every later delivery of the same cell is
// acked as a duplicate without touching the merged state.
func (c *Coordinator) commitResult(res Result) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return AckStale
	}
	l := c.table.release(res.LeaseID)
	j := c.active()
	if j == nil {
		return AckStale
	}
	// An unknown lease (expired, evicted, or granted by a coordinator
	// that has since restarted) can still carry a useful payload:
	// resolve it by cell key against the live grid.
	idx, ok := j.index[res.Key.Hash()]
	if l != nil {
		idx, ok = l.group, true
	}
	if !ok {
		return AckStale
	}
	defer c.checkComplete()
	switch j.ledger.State(idx) {
	case harness.GroupDone:
		return AckDuplicate
	case harness.GroupFailed:
		return AckStale
	}
	worker := res.Worker
	if worker == "" && l != nil {
		worker = l.worker
	}
	now := time.Now()

	if res.ErrMsg == "" {
		if err := j.ledger.Commit(idx, res.Payload); err != nil {
			c.cfg.Logf("dist: %s: commit: %v", res.Key, err)
			if l == nil {
				return AckStale
			}
			cause, _ := harness.Classify(err)
			return c.fail(j, idx, cause, err, worker, now)
		}
		c.commits++
		if w, ok := c.table.workers[worker]; ok {
			w.stat.Completed++
		}
		c.cfg.Logf("dist: commit %s (worker %s)", res.Key, worker)
		if c.cfg.CrashAfterCommits > 0 && c.commits >= c.cfg.CrashAfterCommits && !c.crashed {
			c.crashed = true
			c.cfg.Logf("dist: crash hook: stopping after %d commits", c.commits)
			go c.Stop()
		}
		return AckCommitted
	}

	// Failure path: the worker already classified the error; the
	// ledger applies the retry policy to its cause label. Only a result
	// on the group's live lease speaks for its current attempt: a late
	// one from a lease the queue moved past must not burn a retry.
	c.cfg.Logf("dist: %s failed on %s (%s): %s", res.Key, worker, res.Cause, res.ErrMsg)
	if l == nil {
		return AckStale
	}
	return c.fail(j, idx, res.Cause, errors.New(res.ErrMsg), worker, now)
}

// runJob enumerates, queues and waits out one submitted grid. It runs
// on the submitting connection's goroutine; the answer arrives when the
// grid drains (or degrades). ok is false when the coordinator stopped
// before the job finished — the handler must drop the connection
// unanswered (and unparking here keeps Stop's wg.Wait from deadlocking
// on a submitter that would otherwise never wake).
func (c *Coordinator) runJob(grid GridSpec) (out Output, ok bool) {
	j, err := c.newJob(grid)
	if err != nil {
		return Output{ExitCode: 2, ErrMsg: err.Error()}, true
	}
	c.mu.Lock()
	c.jobs = append(c.jobs, j)
	c.checkComplete() // a fully cache-served grid completes immediately
	c.mu.Unlock()
	select {
	case out := <-j.doneCh:
		return out, true
	case <-c.done:
		return Output{}, false
	}
}

// newJob enumerates a grid spec into a job: plans built from the shared
// registry and a ledger over their deduplicated groups, whose
// cache/journal pre-pass commits already-computed cells without leasing
// them.
func (c *Coordinator) newJob(grid GridSpec) (*job, error) {
	exps, plans, headerMode, err := enumerate(grid)
	if err != nil {
		return nil, err
	}
	j := &job{
		grid:       grid,
		exps:       exps,
		headerMode: headerMode,
		plans:      plans,
		index:      make(map[string]int),
		doneCh:     make(chan Output, 1),
	}
	j.ledger = harness.NewLedger(harness.LedgerConfig{
		Retries: c.cfg.Retries, BackoffBase: c.cfg.BackoffBase,
		KeepGoing: c.cfg.KeepGoing, Cache: c.cfg.Cache, Journal: c.cfg.Journal,
	}, j.plans...)
	groups := j.ledger.Groups()
	for i, g := range groups {
		j.index[g.Key.Hash()] = i
	}
	c.cfg.Logf("dist: job %s: %d cells (%d cached)", grid.Canonical(), len(groups), j.ledger.Report().CacheHits)
	return j, nil
}

// checkComplete finalizes the active job once its ledger drained.
// Called with c.mu held.
func (c *Coordinator) checkComplete() {
	for {
		j := c.active()
		if j == nil || !j.ledger.Drained() {
			return
		}
		c.jobs = c.jobs[1:]
		// Leases of the finished job would dangle into the next job's
		// group numbering; purge them. Their late results fall back to
		// key-based resolution (duplicate or stale).
		c.table.leases = make(map[uint64]*lease)
		j.workers = c.table.stats()
		go c.finalize(j)
	}
}

// finalize finishes the job's ledger (aggregation in plan order) and
// renders its output — the merged grid is byte-identical to a serial
// local run. Runs outside the coordinator lock.
func (c *Coordinator) finalize(j *job) {
	if err := j.ledger.Finish(); err != nil {
		j.doneCh <- Output{ExitCode: 1, ErrMsg: err.Error()}
		return
	}
	kg := c.cfg.KeepGoing
	o := Output{Output: harness.RenderResult(j.plans[0].Result(), kg)}
	if j.headerMode {
		o.Output = harness.RenderSections(j.exps, j.plans, kg)
	}
	if kg {
		rep := j.ledger.Report()
		rep.Workers = j.workers
		o.Report = rep.Render()
		if rep.Failed > 0 {
			o.ExitCode = 3
		}
	}
	j.doneCh <- o
}

// enumerate expands a grid spec against the registry and builds its
// plans. "all" expands to every registered experiment; more than one
// experiment renders with section headers (the `jrs all` format). The
// coordinator and every worker enumerate through here, so a cell key
// resolves to the same simulation closure on either side.
func enumerate(grid GridSpec) (exps []harness.Experiment, plans []*harness.Plan, headerMode bool, err error) {
	switch {
	case len(grid.Experiments) == 0:
		return nil, nil, false, errors.New("dist: empty grid: no experiments")
	case len(grid.Experiments) == 1 && grid.Experiments[0] == "all":
		exps, headerMode = harness.Experiments(), true
	default:
		for _, name := range grid.Experiments {
			e, ok := harness.Lookup(name)
			if !ok {
				return nil, nil, false, fmt.Errorf("dist: unknown experiment %q", name)
			}
			exps = append(exps, e)
		}
		headerMode = len(exps) > 1
	}
	opts, err := grid.Opts.Options()
	if err != nil {
		return nil, nil, false, err
	}
	for _, e := range exps {
		plans = append(plans, e.Plan(opts))
	}
	return exps, plans, headerMode, nil
}
