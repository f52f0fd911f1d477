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
// The caches and the predictor see the trace in program order whatever
// the width, so a front end reduces each instruction to outcome bits
// (I-miss, D-miss, mispredict) that the back end reads. A Group shares
// one front end among all its cores with equal ICache, DCache and
// TargetCache, decodes each batch once into µops whose loads and stores
// carry a slot in one shared store index, and times equal configs on
// one core; New builds a group of one.
//
// Every scheduling rule is deliberately monotone: growing ROBSize,
// RSPerClass or LSQSize only relaxes constraints, so more resources can
// never increase the simulated cycle count on the same trace —
// FuzzPipelineConfig enforces this, along with determinism and the
// structural invariants checked by Checker.
package pipeline

import (
	"fmt"
	"math/bits"
	"slices"

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

// Outcome bits of one instruction, computed by the front end.
const (
	iMiss        uint8 = 1 << iota // the fetch missed the I-cache
	dMiss                          // the load or store missed the D-cache
	mispredicted                   // the control transfer was mispredicted
)

// frontEnd holds a core's L1 caches and branch predictor.
type frontEnd struct {
	ic, dc  *cache.Cache
	observe func(trace.Inst) bool // the predictor: true on a mispredict
	bits    []uint8               // outcomes of the batch last passed to run
}

func newFrontEnd(cfg Config) *frontEnd {
	f := &frontEnd{ic: cache.New(cfg.ICache), dc: cache.New(cfg.DCache),
		observe: branch.NewUnit(branch.NewGshare(2048, 5), 1024).Observe}
	if cfg.TargetCache {
		f.observe = branch.NewIndirectUnit().Observe
	}
	return f
}

// outcome returns one instruction's outcome bits.
func (f *frontEnd) outcome(in *trace.Inst) uint8 {
	var b uint8
	if !f.ic.Access(in.PC, false) {
		b = iMiss
	}
	switch {
	case in.Class == trace.Load || in.Class == trace.Store:
		if !f.dc.Access(in.Addr, in.Class == trace.Store) {
			b |= dMiss
		}
	case in.Class.IsControl():
		if f.observe(*in) {
			b |= mispredicted
		}
	}
	return b
}

// run computes the outcome bits of a batch into f.bits.
func (f *frontEnd) run(batch []trace.Inst) {
	f.bits = slices.Grow(f.bits[:0], len(batch))[:len(batch)]
	for i := range batch {
		f.bits[i] = f.outcome(&batch[i])
	}
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

// rsPool is one reservation-station pool. A station is reusable the
// cycle its occupant issues, and dispatch cycles never decrease, so an
// occupant issued by the current dispatch cycle is free for every later
// dispatch too. The pool therefore keeps only the issue cycles of
// occupants still waiting, ascending in a ring: the head is the
// earliest issuer, and a pool is full only when all RSPerClass wait.
type rsPool struct {
	ring    []uint64 // power-of-two length ≥ RSPerClass
	head, n int
}

// claim returns the cycle an instruction ready to dispatch at cycle d
// gets a station: d itself, once the occupants issued by d are freed,
// unless every station still waits, when the earliest issuer vacates.
func (p *rsPool) claim(d uint64, size int) uint64 {
	mask := len(p.ring) - 1
	for p.n > 0 && p.ring[p.head] <= d {
		p.head, p.n = (p.head+1)&mask, p.n-1
	}
	if p.n == size {
		d = p.ring[p.head]
		p.head, p.n = (p.head+1)&mask, p.n-1
	}
	return d
}

// hold records an occupant that waits in its station until cycle issue.
func (p *rsPool) hold(issue uint64) {
	mask := len(p.ring) - 1
	i := p.n
	for ; i > 0 && p.ring[(p.head+i-1)&mask] > issue; i-- {
		p.ring[(p.head+i)&mask] = p.ring[(p.head+i-1)&mask]
	}
	p.ring[(p.head+i)&mask] = issue
	p.n++
}

// µop kinds: all the back end needs of an instruction's class.
const (
	uopInt   uint8 = iota // integer ALU work and control transfers
	uopFP                 // floating-point work
	uopLoad               // a load
	uopStore              // a store
)

// rsOfKind maps a µop kind to its reservation-station pool.
var rsOfKind = [...]rsClass{uopInt: rsInt, uopFP: rsFP, uopLoad: rsMem, uopStore: rsMem}

// uop is one instruction as the back end times it. A Group decodes each
// batch into µops once for all its cores; a load or store carries the
// dense slot of its 8-byte word in the group's store index.
type uop struct {
	kind            uint8
	src1, src2, dst uint8
	slot            uint32
}

// Core is the timing model. It implements trace.Sink; feed it a
// program's native trace and read IPC afterwards.
type Core struct {
	cfg Config
	g   *Group // the group that decodes the core's batches
	fe  *frontEnd

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

	// rob and lsq are delay lines of commit cycles, indexed by sequence
	// number modulo their power-of-two length (greater than ROBSize and
	// LSQSize). Commit is in program order, so the entry instruction k
	// waits for in a full ROB is that of instruction k-ROBSize, and
	// likewise for the LSQ over memory operations; memOps numbers
	// those.
	rob, lsq []uint64
	memOps   uint64

	// rs[class] holds the issue cycles of the stations' waiting
	// occupants; a pool whose every station waits stalls dispatch until
	// the earliest-issuing occupant vacates.
	rs [numRSClasses]rsPool

	// stores[s] is the cycle the last store to the word in slot s of
	// the group's store index completes, or 0 before any store to it (a
	// store completes at cycle 2 at the earliest). Loads from the word
	// forward from it (and replay off it when they speculated past it).
	// This carries the true memory dependences — loop variables the
	// JIT keeps in frame slots, the interpreter's operand stack —
	// without which the model overstates ILP badly.
	stores []uint64

	// commit-stage bookkeeping: in-order, IssueWidth per cycle.
	lastCommitCycle  uint64
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
	// MemForwards counts loads bound by store-to-load forwarding that
	// waited for the store; MemReplays counts the bound loads that
	// instead issued before the store's data was ready and had to
	// replay (only possible under MemSpeculate). No load is in both.
	MemForwards uint64
	MemReplays  uint64
}

// New builds a standalone core: a group of one, with its own front end.
func New(cfg Config) *Core { return NewGroup(cfg).cores[0] }

// newCore builds a core without its front end.
func newCore(cfg Config) *Core {
	if cfg.IssueWidth < 1 || cfg.ROBSize < 1 || cfg.RSPerClass < 1 || cfg.LSQSize < 1 {
		panic(fmt.Sprintf("pipeline: invalid config (width=%d rob=%d rs=%d lsq=%d)",
			cfg.IssueWidth, cfg.ROBSize, cfg.RSPerClass, cfg.LSQSize))
	}
	c := &Core{cfg: cfg,
		rob: make([]uint64, 1<<bits.Len(uint(cfg.ROBSize))),
		lsq: make([]uint64, 1<<bits.Len(uint(cfg.LSQSize)))}
	for i := range c.rs {
		c.rs[i].ring = make([]uint64, 1<<bits.Len(uint(cfg.RSPerClass)))
	}
	return c
}

// Check attaches (and returns) an invariant checker that independently
// re-validates every instruction's lifecycle, or returns the one
// already attached: equal configs of a group share one core. Intended
// for tests and debug runs; the default nil hook keeps the hot path
// free of it.
func (c *Core) Check() *Checker {
	if c.check == nil {
		c.check = NewChecker(c.cfg)
	}
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

// EmitBatch implements trace.Sink by feeding the batch to the core's
// group; a core built by New is a group of one.
func (c *Core) EmitBatch(batch []trace.Inst) { c.g.EmitBatch(batch) }

// Emit implements trace.Sink, timing one instruction.
func (c *Core) Emit(in trace.Inst) { c.EmitBatch([]trace.Inst{in}) }

// run times a decoded batch through fetch → dispatch/rename → issue →
// execute/CDB broadcast → in-order commit. ops is the group's µop
// stream and fe the outcome bits of the core's front end; batch, the
// instructions they were decoded from, is read only by the checker.
// The stage cycles and their per-cycle counts live in locals for the
// batch and are written back once at its end.
func (c *Core) run(batch []trace.Inst, ops []uop, fe []uint8) {
	cfg := &c.cfg
	width := cfg.IssueWidth
	fetch, fetched := c.fetchCycle, c.fetchedThisCycle
	disp, dispatched := c.dispatchCycle, c.dispatchedThisCycle
	commit, committed := c.lastCommitCycle, c.commitsThisCycle
	seq, memSeq := c.Instrs, c.memOps
	rob, robSize, robMask := c.rob, uint64(cfg.ROBSize), uint64(len(c.rob)-1)
	lsq, lsqSize, lsqMask := c.lsq, uint64(cfg.LSQSize), uint64(len(c.lsq)-1)
	stores := c.stores
	fe = fe[:len(ops)]
	for i := range ops {
		op := &ops[i]
		bits := fe[i]

		// ---- Fetch: in order, IssueWidth per cycle, I-cache stalls. ----
		if fetched >= width {
			fetch++
			fetched = 0
		}
		if bits&iMiss != 0 {
			fetch += cfg.MissPenalty
			fetched = 0
		}
		fetchAt := fetch
		fetched++

		// ---- Dispatch/rename: in order, IssueWidth per cycle, stalling
		// on a full ROB, LSQ, or reservation-station pool. A full ROB
		// frees the entry of the instruction ROBSize older the cycle
		// after it commits; an entry not yet written reads 0, which
		// never binds since dispatch is at cycle 1 at the earliest. ----
		dispatchAt := max(fetchAt+1, disp, rob[(seq-robSize)&robMask]+1)
		isMem := op.kind >= uopLoad
		if isMem {
			dispatchAt = max(dispatchAt, lsq[(memSeq-lsqSize)&lsqMask]+1)
		}
		cl := rsOfKind[op.kind]
		dispatchAt = c.rs[cl].claim(dispatchAt, cfg.RSPerClass)
		// Rename bandwidth: at most IssueWidth dispatches per cycle.
		if dispatchAt > disp {
			disp, dispatched = dispatchAt, 1
		} else {
			dispatched++
			if dispatched > width {
				disp++
				dispatchAt = disp
				dispatched = 1
			}
		}

		// ---- Issue: wait in the station until both sources have
		// broadcast on the CDB. ----
		ready := dispatchAt
		if op.src1 != trace.RegNone {
			ready = max(ready, c.regReady[op.src1])
		}
		if op.src2 != trace.RegNone {
			ready = max(ready, c.regReady[op.src2])
		}
		var fwdCycle uint64 // the last older store to the word, 0 if none
		if op.kind == uopLoad {
			fwdCycle = stores[op.slot]
			if !cfg.MemSpeculate && fwdCycle > ready {
				// Conservative disambiguation: the load may not issue
				// until the last store to its word has its data.
				ready = fwdCycle
			}
		}
		issueAt := ready
		if issueAt > dispatchAt {
			c.rs[cl].hold(issueAt)
		}

		// ---- Execute; result broadcasts on the CDB at completion. ----
		var complete uint64
		fwdBound := false
		switch op.kind {
		case uopFP:
			complete = issueAt + cfg.FPLatency
		case uopLoad:
			lat := cfg.LoadLatency
			if bits&dMiss != 0 {
				lat += cfg.MissPenalty
			}
			complete = issueAt + lat
			// Store-to-load forwarding through the LSQ: the value is
			// not available before the producing store completes. A
			// load that speculated past the store (issued before the
			// store's data was ready) replays off the forwarded value
			// at the same point, so speculation never deepens the
			// penalty — it only reveals how often the disambiguator
			// guessed wrong.
			if fwdCycle != 0 && fwdCycle+cfg.ForwardLatency > complete {
				complete = fwdCycle + cfg.ForwardLatency
				fwdBound = true
				if cfg.MemSpeculate && fwdCycle > issueAt {
					c.MemReplays++
				} else {
					c.MemForwards++
				}
			}
		case uopStore:
			lat := uint64(1)
			// A write-allocate store miss must fetch the line; the
			// era's shallow write buffers expose that latency to
			// dependants (this is what makes JIT code installation
			// expensive, §6).
			if bits&dMiss != 0 {
				lat += cfg.MissPenalty
			}
			complete = issueAt + lat
			stores[op.slot] = complete
		default:
			complete = issueAt + cfg.IntLatency
		}

		if op.dst != trace.RegNone {
			c.regReady[op.dst] = complete
		}

		// ---- Control transfers: a misprediction squashes everything
		// the front end fetched down the wrong path and re-fetches the
		// corrected path MispredictPenalty cycles after the branch
		// resolves on the CDB. (The wrong-path instructions themselves
		// are not in the committed trace; the discarded front-end
		// cycles are accounted in SquashCycles.) ----
		if bits&mispredicted != 0 {
			c.Mispredicts++
			if resume := complete + cfg.MispredictPenalty; resume > fetch {
				c.SquashCycles += resume - fetch
				fetch = resume
				fetched = 0
			}
		}

		// ---- Commit: strictly in program order, IssueWidth per cycle,
		// the cycle after the result broadcasts at the earliest. ----
		commitAt := max(complete+1, commit)
		if commitAt > commit {
			commit, committed = commitAt, 1
		} else {
			committed++
			if committed > width {
				commit++
				commitAt = commit
				committed = 1
			}
		}
		rob[seq&robMask] = commitAt
		if isMem {
			lsq[memSeq&lsqMask] = commitAt
			memSeq++
		}

		if c.check != nil {
			in := &batch[i]
			c.check.Record(Event{
				Seq:      seq,
				Class:    in.Class,
				Word:     in.Addr >> 3,
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
		seq++
	}
	c.fetchCycle, c.fetchedThisCycle = fetch, fetched
	c.dispatchCycle, c.dispatchedThisCycle = disp, dispatched
	c.lastCommitCycle, c.commitsThisCycle = commit, committed
	c.Instrs, c.memOps = seq, memSeq
	c.LastCycle = commit
}

// Group is a trace.Sink that times one trace on several cores. It
// decodes each batch once into µops, numbering the words loads and
// stores touch in one store index, and shares one front end among the
// cores with equal ICache, DCache and TargetCache, and one core among
// equal configs. Feed its cores only through the group.
type Group struct {
	fronts []*frontEnd
	cores  []*Core // one per config, in config order
	timed  []*Core // the distinct cores, each timed once per batch
	words  wordTable
	ops    []uop // the batch last decoded
}

// NewGroup builds one core per distinct config; Cores lists one entry
// per config, in order.
func NewGroup(cfgs ...Config) *Group {
	fronts := map[Config]*frontEnd{} // keyed by the front-end fields alone
	built := map[Config]*Core{}
	g := &Group{}
	g.words.init()
	for _, cfg := range cfgs {
		c := built[cfg]
		if c == nil {
			c = newCore(cfg)
			c.g = g
			k := Config{ICache: cfg.ICache, DCache: cfg.DCache, TargetCache: cfg.TargetCache}
			if c.fe = fronts[k]; c.fe == nil {
				c.fe = newFrontEnd(cfg)
				fronts[k] = c.fe
				g.fronts = append(g.fronts, c.fe)
			}
			built[cfg] = c
			g.timed = append(g.timed, c)
		}
		g.cores = append(g.cores, c)
	}
	return g
}

// Cores returns the group's cores in config order: equal configs share
// one core.
func (g *Group) Cores() []*Core { return g.cores }

// FrontEnds returns the number of distinct front ends the group runs.
func (g *Group) FrontEnds() int { return len(g.fronts) }

// decode reduces a batch to µops in g.ops, giving each load and store
// its word's slot in the store index.
func (g *Group) decode(batch []trace.Inst) {
	g.ops = slices.Grow(g.ops[:0], len(batch))[:len(batch)]
	for i := range batch {
		in := &batch[i]
		op := uop{src1: in.Src1, src2: in.Src2, dst: in.Dst}
		switch in.Class {
		case trace.FPU:
			op.kind = uopFP
		case trace.Load:
			op.kind, op.slot = uopLoad, uint32(g.words.slot(in.Addr>>3))
		case trace.Store:
			op.kind, op.slot = uopStore, uint32(g.words.slot(in.Addr>>3))
		}
		g.ops[i] = op
	}
}

// EmitBatch implements trace.Sink: each front end reduces the batch to
// outcome bits and the group decodes it to µops, once; then every
// distinct core times it. A core's store array grows with the store
// index, to the index's power-of-two capacity.
func (g *Group) EmitBatch(batch []trace.Inst) {
	for _, f := range g.fronts {
		f.run(batch)
	}
	g.decode(batch)
	for _, c := range g.timed {
		if n := len(g.words.keys); len(c.stores) < n {
			grown := make([]uint64, n)
			copy(grown, c.stores)
			c.stores = grown
		}
		c.run(batch, g.ops, c.fe.bits)
	}
}

// Emit implements trace.Sink, timing one instruction on every core.
func (g *Group) Emit(in trace.Inst) { g.EmitBatch([]trace.Inst{in}) }
