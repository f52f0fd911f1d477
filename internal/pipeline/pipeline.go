// Package pipeline implements the trace-driven superscalar processor
// timing model behind the paper's ILP study (Figures 9 and 10).
//
// The model is a speculative out-of-order core in the Tomasulo-with-ROB
// style of the cycle-level simulators of the era: instructions are
// fetched in program order at up to IssueWidth per cycle (stalling on
// I-cache misses), renamed into a reorder buffer of ROBSize entries and
// a per-class reservation station pool of RSPerClass entries (memory
// operations additionally claim a load/store-queue slot of LSQSize),
// issue out of order once their source operands have broadcast on the
// common data bus, execute with class-specific latencies (loads pay the
// D-cache miss penalty and forward from older stores through the LSQ),
// and commit strictly in program order at up to IssueWidth per cycle.
// Branch direction comes from a Gshare unit with a BTB, matching the
// best predictor of Table 2; a misprediction squashes the speculative
// front end and re-fetches the corrected path MispredictPenalty cycles
// after the branch resolves on the CDB. Loads may issue speculatively
// past older stores with unresolved data (MemSpeculate) and replay when
// the disambiguation turns out wrong.
//
// Every scheduling rule is deliberately monotone: growing ROBSize,
// RSPerClass or LSQSize only relaxes constraints, so more resources can
// never increase the simulated cycle count on the same trace —
// FuzzPipelineConfig enforces this, along with determinism and the
// structural invariants checked by Checker.
package pipeline

import (
	"fmt"

	"jrs/internal/branch"
	"jrs/internal/cache"
	"jrs/internal/trace"
)

// Config parameterizes the core.
type Config struct {
	// IssueWidth is the fetch, dispatch and commit bandwidth per cycle
	// (1, 2, 4, 8 in the paper's sweep).
	IssueWidth int
	// ROBSize is the reorder-buffer capacity: the number of
	// instructions that may be in flight between dispatch and in-order
	// commit.
	ROBSize int
	// RSPerClass is the reservation-station count per functional-unit
	// class (integer+control, floating point, memory). A station is
	// held from dispatch until the instruction issues.
	RSPerClass int
	// LSQSize is the load/store-queue capacity; every memory operation
	// holds an entry from dispatch until it commits.
	LSQSize int
	// MemSpeculate lets loads issue past older same-word stores whose
	// data is not yet ready (memory-dependence speculation); a
	// misspeculated load replays off the forwarded store data. When
	// false, disambiguation is conservative: such loads wait to issue.
	MemSpeculate bool
	// MispredictPenalty is the fetch-redirect latency after a
	// mispredicted control transfer resolves on the CDB: the corrected
	// path is re-fetched this many cycles after resolution.
	MispredictPenalty uint64
	// MissPenalty is the L1 miss penalty in cycles (applied to both
	// instruction fetch stalls and load latency).
	MissPenalty uint64
	// IntLatency, FPLatency, LoadLatency are hit execution latencies.
	IntLatency, FPLatency, LoadLatency uint64
	// ForwardLatency is the store-to-load forwarding delay through the
	// LSQ (a dependent load sees the stored value this many cycles
	// after the store completes).
	ForwardLatency uint64
	// TargetCache swaps the front end's BTB for the two-level indirect
	// target predictor (the paper's §4.4 "architectural support"
	// hypothesis for interpreter scaling).
	TargetCache bool
	// ICache and DCache configure the core's own L1 caches.
	ICache, DCache cache.Config
}

// DefaultConfig returns the configuration used by the Figure 9/10
// reproduction at the given issue width: 64-entry ROB, 16 reservation
// stations per class, 32-entry LSQ with memory-dependence speculation,
// 64KB L1s as in the cache study, 20-cycle miss penalty, 5-cycle
// mispredict redirect.
func DefaultConfig(width int) Config {
	return Config{
		IssueWidth:        width,
		ROBSize:           64,
		RSPerClass:        16,
		LSQSize:           32,
		MemSpeculate:      true,
		MispredictPenalty: 5,
		MissPenalty:       20,
		IntLatency:        1,
		FPLatency:         3,
		LoadLatency:       2,
		ForwardLatency:    3,
		ICache:            cache.Config{Name: "I", Size: 64 << 10, LineSize: 32, Assoc: 2, WriteAllocate: true},
		DCache:            cache.Config{Name: "D", Size: 64 << 10, LineSize: 32, Assoc: 4, WriteAllocate: true},
	}
}

// predictor abstracts the front-end prediction unit.
type predictor interface {
	Observe(trace.Inst) bool
}

// rsClass partitions instructions over the reservation-station pools.
type rsClass int

const (
	// rsInt covers integer ALU work and control transfers.
	rsInt rsClass = iota
	// rsFP covers floating-point work.
	rsFP
	// rsMem covers loads and stores.
	rsMem
	numRSClasses
)

// rsClassOf maps an instruction class to its reservation-station pool.
func rsClassOf(cl trace.Class) rsClass {
	switch cl {
	case trace.FPU:
		return rsFP
	case trace.Load, trace.Store:
		return rsMem
	}
	return rsInt
}

// cycleRing is a FIFO of event cycles used for the ROB and LSQ: entries
// are pushed at commit-time order and popped oldest-first, which is
// exact because commit is in program order.
type cycleRing struct {
	buf   []uint64
	head  int
	count int
}

func newCycleRing(n int) cycleRing { return cycleRing{buf: make([]uint64, n)} }

func (r *cycleRing) full() bool { return r.count == len(r.buf) }

func (r *cycleRing) popFront() uint64 {
	v := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.count--
	return v
}

func (r *cycleRing) push(v uint64) {
	i := r.head + r.count
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = v
	r.count++
}

// Core is the timing model. It implements trace.Sink; feed it a
// program's native trace and read IPC afterwards.
type Core struct {
	cfg  Config
	ic   *cache.Cache
	dc   *cache.Cache
	pred predictor

	// regReady[r] is the CDB broadcast cycle of register r's latest
	// producer (indexable by any register byte incl. RegNone, which is
	// never written).
	regReady [256]uint64

	// fetchCycle is the cycle the next instruction can be fetched;
	// fetchedThisCycle counts instructions fetched at that cycle.
	fetchCycle       uint64
	fetchedThisCycle int

	// dispatchCycle / dispatchedThisCycle enforce in-order rename at
	// IssueWidth per cycle.
	dispatchCycle       uint64
	dispatchedThisCycle int

	// rob holds the commit cycles of in-flight instructions in program
	// order; a full ROB stalls dispatch until the oldest entry commits.
	rob cycleRing
	// lsq does the same for in-flight memory operations.
	lsq cycleRing

	// rs[class] holds the issue cycles of the stations' current
	// occupants; a full pool stalls dispatch until the occupant with
	// the earliest issue vacates.
	rs [numRSClasses][]uint64

	// memReady records, per 8-byte word, the cycle the last store to it
	// completes; loads from the word forward from it (and replay off it
	// when they speculated past it). This carries the true memory
	// dependences — loop variables the JIT keeps in frame slots, the
	// interpreter's operand stack — without which the model overstates
	// ILP badly. It is an open-addressing table rather than a Go map:
	// one probe per load/store is the model's hottest lookup.
	memReady wordCycleTable

	// commit-stage bookkeeping: in-order, IssueWidth per cycle.
	lastCommitCycle uint64
	commitsThisCycle int

	// check, when non-nil, receives every instruction's lifecycle for
	// independent invariant validation. Hot runs leave it nil, reducing
	// the hook to one predictable branch per instruction.
	check *Checker

	// Instrs counts committed instructions; LastCycle the final commit.
	Instrs    uint64
	LastCycle uint64
	// Mispredicts counts squash-and-refetch recoveries; SquashCycles
	// the total front-end cycles discarded by them.
	Mispredicts  uint64
	SquashCycles uint64
	// MemForwards counts loads bound by store-to-load forwarding;
	// MemReplays the subset that issued before the store's data was
	// ready and had to replay (only possible under MemSpeculate).
	MemForwards uint64
	MemReplays  uint64
}

// New builds a core.
func New(cfg Config) *Core {
	if cfg.IssueWidth < 1 || cfg.ROBSize < 1 || cfg.RSPerClass < 1 || cfg.LSQSize < 1 {
		panic(fmt.Sprintf("pipeline: invalid config (width=%d rob=%d rs=%d lsq=%d)",
			cfg.IssueWidth, cfg.ROBSize, cfg.RSPerClass, cfg.LSQSize))
	}
	var pred predictor = branch.NewUnit(branch.NewGshare(2048, 5), 1024)
	if cfg.TargetCache {
		pred = branch.NewIndirectUnit()
	}
	c := &Core{
		cfg:  cfg,
		ic:   cache.New(cfg.ICache),
		dc:   cache.New(cfg.DCache),
		pred: pred,
		rob:  newCycleRing(cfg.ROBSize),
		lsq:  newCycleRing(cfg.LSQSize),
	}
	for i := range c.rs {
		c.rs[i] = make([]uint64, 0, cfg.RSPerClass)
	}
	c.memReady.init()
	return c
}

// Check attaches (and returns) an invariant checker that independently
// re-validates every instruction's lifecycle. Intended for tests and
// debug runs; the default nil hook keeps the hot path free of it.
func (c *Core) Check() *Checker {
	c.check = NewChecker(c.cfg)
	return c.check
}

// Config returns the core's configuration.
func (c *Core) Config() Config { return c.cfg }

// IPC returns committed instructions per cycle.
func (c *Core) IPC() float64 {
	if c.LastCycle == 0 {
		return 0
	}
	return float64(c.Instrs) / float64(c.LastCycle)
}

// Cycles returns the total simulated cycles.
func (c *Core) Cycles() uint64 { return c.LastCycle }

// EmitBatch implements trace.Sink: the front end consumes whole
// fetch batches through one dispatch, timing each instruction in place
// (no per-instruction 40-byte Inst copy) with a direct call into the
// core.
func (c *Core) EmitBatch(batch []trace.Inst) {
	for i := range batch {
		c.step(&batch[i])
	}
}

// Emit implements trace.Sink, timing one instruction.
func (c *Core) Emit(in trace.Inst) { c.step(&in) }

// step times one instruction through fetch → dispatch/rename → issue →
// execute/CDB broadcast → in-order commit.
func (c *Core) step(in *trace.Inst) {
	cfg := &c.cfg

	// ---- Fetch: in order, IssueWidth per cycle, I-cache stalls. ----
	if c.fetchedThisCycle >= cfg.IssueWidth {
		c.fetchCycle++
		c.fetchedThisCycle = 0
	}
	if !c.ic.Access(in.PC, false) {
		c.fetchCycle += cfg.MissPenalty
		c.fetchedThisCycle = 0
	}
	fetchAt := c.fetchCycle
	c.fetchedThisCycle++

	// ---- Dispatch/rename: in order, IssueWidth per cycle, stalling
	// on a full ROB, LSQ, or reservation-station pool. ----
	dispatchAt := fetchAt + 1
	if dispatchAt < c.dispatchCycle {
		dispatchAt = c.dispatchCycle
	}
	if c.rob.full() {
		// The oldest in-flight instruction commits first; its entry is
		// reusable the cycle after.
		if free := c.rob.popFront() + 1; free > dispatchAt {
			dispatchAt = free
		}
	}
	isMem := in.Class == trace.Load || in.Class == trace.Store
	if isMem && c.lsq.full() {
		if free := c.lsq.popFront() + 1; free > dispatchAt {
			dispatchAt = free
		}
	}
	cl := rsClassOf(in.Class)
	if slots := c.rs[cl]; len(slots) == cfg.RSPerClass {
		// The station vacating earliest belongs to the occupant with
		// the earliest issue; it is reusable the cycle it issues.
		minI := 0
		for i, v := range slots {
			if v < slots[minI] {
				minI = i
			}
		}
		if slots[minI] > dispatchAt {
			dispatchAt = slots[minI]
		}
		slots[minI] = slots[len(slots)-1]
		c.rs[cl] = slots[:len(slots)-1]
	}
	// Rename bandwidth: at most IssueWidth dispatches per cycle.
	if dispatchAt > c.dispatchCycle {
		c.dispatchCycle = dispatchAt
		c.dispatchedThisCycle = 1
	} else {
		c.dispatchedThisCycle++
		if c.dispatchedThisCycle > cfg.IssueWidth {
			c.dispatchCycle++
			dispatchAt = c.dispatchCycle
			c.dispatchedThisCycle = 1
		}
	}

	// ---- Issue: wait in the station until both sources have
	// broadcast on the CDB. ----
	ready := dispatchAt
	if in.Src1 != trace.RegNone {
		ready = max(ready, c.regReady[in.Src1])
	}
	if in.Src2 != trace.RegNone {
		ready = max(ready, c.regReady[in.Src2])
	}
	word := in.Addr >> 3
	var fwdCycle uint64
	var fwdPending bool
	if in.Class == trace.Load {
		if sr, ok := c.memReady.get(word); ok {
			fwdCycle, fwdPending = sr, true
			if !cfg.MemSpeculate && sr > ready {
				// Conservative disambiguation: the load may not issue
				// until the last store to its word has its data.
				ready = sr
			}
		}
	}
	issueAt := ready
	c.rs[cl] = append(c.rs[cl], issueAt)

	// ---- Execute; result broadcasts on the CDB at completion. ----
	var complete uint64
	fwdBound := false
	switch in.Class {
	case trace.FPU:
		complete = issueAt + cfg.FPLatency
	case trace.Load:
		lat := cfg.LoadLatency
		if !c.dc.Access(in.Addr, false) {
			lat += cfg.MissPenalty
		}
		complete = issueAt + lat
		// Store-to-load forwarding through the LSQ: the value is not
		// available before the producing store completes. A load that
		// speculated past the store (issued before the store's data
		// was ready) replays off the forwarded value at the same
		// point, so speculation never deepens the penalty — it only
		// reveals how often the disambiguator guessed wrong.
		if fwdPending && fwdCycle+cfg.ForwardLatency > complete {
			complete = fwdCycle + cfg.ForwardLatency
			fwdBound = true
			if cfg.MemSpeculate && fwdCycle > issueAt {
				c.MemReplays++
			} else {
				c.MemForwards++
			}
		}
	case trace.Store:
		lat := uint64(1)
		// A write-allocate store miss must fetch the line; the era's
		// shallow write buffers expose that latency to dependants
		// (this is what makes JIT code installation expensive, §6).
		if !c.dc.Access(in.Addr, true) {
			lat += cfg.MissPenalty
		}
		complete = issueAt + lat
		c.memReady.put(word, complete)
	default:
		complete = issueAt + cfg.IntLatency
	}

	if in.Dst != trace.RegNone {
		c.regReady[in.Dst] = complete
	}

	// ---- Control transfers: a misprediction squashes everything the
	// front end fetched down the wrong path and re-fetches the
	// corrected path MispredictPenalty cycles after the branch
	// resolves on the CDB. (The wrong-path instructions themselves are
	// not in the committed trace; the discarded front-end cycles are
	// accounted in SquashCycles.) ----
	if in.Class.IsControl() {
		if c.pred.Observe(*in) {
			c.Mispredicts++
			resume := complete + cfg.MispredictPenalty
			if resume > c.fetchCycle {
				c.SquashCycles += resume - c.fetchCycle
				c.fetchCycle = resume
				c.fetchedThisCycle = 0
			}
		}
	}

	// ---- Commit: strictly in program order, IssueWidth per cycle,
	// the cycle after the result broadcasts at the earliest. ----
	commitAt := complete + 1
	if commitAt < c.lastCommitCycle {
		commitAt = c.lastCommitCycle
	}
	if commitAt > c.lastCommitCycle {
		c.lastCommitCycle = commitAt
		c.commitsThisCycle = 1
	} else {
		c.commitsThisCycle++
		if c.commitsThisCycle > cfg.IssueWidth {
			c.lastCommitCycle++
			commitAt = c.lastCommitCycle
			c.commitsThisCycle = 1
		}
	}
	c.rob.push(commitAt)
	if isMem {
		c.lsq.push(commitAt)
	}

	if c.check != nil {
		c.check.Record(Event{
			Seq:      c.Instrs,
			Class:    in.Class,
			Word:     word,
			Src1:     in.Src1,
			Src2:     in.Src2,
			Dst:      in.Dst,
			Fetch:    fetchAt,
			Dispatch: dispatchAt,
			Issue:    issueAt,
			Complete: complete,
			Commit:   commitAt,
			FwdUsed:  fwdBound,
			FwdFrom:  fwdCycle,
		})
	}

	c.Instrs++
	c.LastCycle = commitAt
}
