package pipeline

import (
	"container/heap"
	"fmt"

	"jrs/internal/trace"
)

// Event is the per-instruction lifecycle record the core hands to an
// attached Checker: one entry per committed instruction carrying every
// pipeline-stage cycle plus the operands needed to re-derive the
// dependences independently.
type Event struct {
	// Seq is the instruction's program-order sequence number (0-based).
	Seq uint64
	// Class is the architectural class.
	Class trace.Class
	// Word is the 8-byte-word address for memory operations.
	Word uint64
	// Src1, Src2, Dst are the architectural registers (RegNone unused).
	Src1, Src2, Dst uint8
	// Fetch, Dispatch, Issue, Complete, Commit are the stage cycles.
	Fetch, Dispatch, Issue, Complete, Commit uint64
	// FwdUsed reports that the load's completion was bound by
	// store-to-load forwarding; FwdFrom is the forwarding store's
	// completion cycle.
	FwdUsed bool
	// FwdFrom is the completion cycle of the store that forwarded.
	FwdFrom uint64
}

// Checker independently re-validates the microarchitectural invariants
// of an event stream. It deliberately shares no state with the core: it
// rebuilds register readiness, ROB/LSQ occupancy and the store table
// from the events alone, so a core bug cannot hide by corrupting the
// structures the checker reads. Attach one with Core.Check in tests and
// debug runs; hot runs leave the hook nil, which reduces the cost to a
// single predictable branch per instruction.
type Checker struct {
	cfg Config

	// nextSeq enforces that every fetched instruction retires exactly
	// once, in order: the stream must carry dense sequence numbers.
	nextSeq uint64

	// lastCommit enforces in-program-order commit.
	lastCommit uint64

	// robCommits / lsqCommits hold the commit cycles of in-flight
	// instructions (ROB) and memory operations (LSQ) in program order;
	// entries are dropped once the new instruction's dispatch cycle
	// passes their commit, which re-derives occupancy without trusting
	// the core's rings.
	robCommits queue
	lsqCommits queue

	// rsIssues[pool] is a min-heap of the issue cycles of older
	// instructions of each reservation-station pool; entries are popped
	// once the new instruction's dispatch cycle reaches their issue,
	// which re-derives station occupancy without trusting the core's
	// pools.
	rsIssues [numRSClasses]cycleHeap

	// regReady re-derives each register's CDB broadcast cycle.
	regReady [256]uint64

	// storeComplete maps word → completion cycle of the last store, to
	// validate that forwarding only ever comes from an older store to
	// the same word.
	storeComplete map[uint64]uint64

	violations []string
}

// maxViolations bounds how many violations a Checker records; a broken
// core would otherwise bury the first (most diagnostic) report.
const maxViolations = 16

// NewChecker builds a checker for a core with the given configuration.
func NewChecker(cfg Config) *Checker {
	return &Checker{cfg: cfg, storeComplete: make(map[uint64]uint64)}
}

// queue is a FIFO of cycles with an amortized-compacting head index.
type queue struct {
	buf  []uint64
	head int
}

func (q *queue) push(v uint64) {
	if q.head > 1024 && q.head*2 > len(q.buf) {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *queue) len() int { return len(q.buf) - q.head }

// dropBefore removes front entries whose cycle is < limit. Valid
// because entries are pushed in non-decreasing commit order.
func (q *queue) dropBefore(limit uint64) {
	for q.head < len(q.buf) && q.buf[q.head] < limit {
		q.head++
	}
}

// cycleHeap is a container/heap min-heap of cycles.
type cycleHeap []uint64

func (h cycleHeap) Len() int           { return len(h) }
func (h cycleHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h cycleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *cycleHeap) Push(x any)        { *h = append(*h, x.(uint64)) }
func (h *cycleHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

func (c *Checker) fail(e *Event, format string, args ...any) {
	if len(c.violations) >= maxViolations {
		return
	}
	msg := fmt.Sprintf(format, args...)
	c.violations = append(c.violations,
		fmt.Sprintf("inst %d (%s): %s [fetch=%d dispatch=%d issue=%d complete=%d commit=%d]",
			e.Seq, e.Class, msg, e.Fetch, e.Dispatch, e.Issue, e.Complete, e.Commit))
}

// Record validates one instruction's lifecycle against every invariant.
func (c *Checker) Record(e Event) {
	// Every fetched instruction retires exactly once, in program order.
	if e.Seq != c.nextSeq {
		c.fail(&e, "sequence gap: got seq %d, want %d", e.Seq, c.nextSeq)
		c.nextSeq = e.Seq // resynchronize so one gap reports once
	}
	c.nextSeq++

	// Stage ordering within the instruction.
	if e.Dispatch <= e.Fetch {
		c.fail(&e, "dispatched at or before fetch")
	}
	if e.Issue < e.Dispatch {
		c.fail(&e, "issued before dispatch")
	}
	if e.Complete < e.Issue {
		c.fail(&e, "completed before issue")
	}
	if e.Commit <= e.Complete {
		c.fail(&e, "committed at or before completion broadcast")
	}

	// Commits are in program order.
	if e.Commit < c.lastCommit {
		c.fail(&e, "commit out of order: cycle %d after older commit at %d", e.Commit, c.lastCommit)
	}
	c.lastCommit = e.Commit

	// ROB occupancy ≤ capacity: at this instruction's dispatch cycle,
	// every older instruction whose commit cycle has not passed still
	// holds its entry.
	c.robCommits.dropBefore(e.Dispatch)
	if c.robCommits.len() >= c.cfg.ROBSize {
		c.fail(&e, "ROB overflow: %d older instructions in flight at dispatch, capacity %d",
			c.robCommits.len(), c.cfg.ROBSize)
	}
	c.robCommits.push(e.Commit)

	isMem := e.Class == trace.Load || e.Class == trace.Store
	if isMem {
		c.lsqCommits.dropBefore(e.Dispatch)
		if c.lsqCommits.len() >= c.cfg.LSQSize {
			c.fail(&e, "LSQ overflow: %d older memory ops in flight at dispatch, capacity %d",
				c.lsqCommits.len(), c.cfg.LSQSize)
		}
		c.lsqCommits.push(e.Commit)
	}

	// Reservation stations ≤ capacity: a station is held from dispatch
	// until its occupant issues, so at this instruction's dispatch
	// fewer than RSPerClass older same-pool instructions may still be
	// waiting to issue.
	pool := &c.rsIssues[rsClassOf(e.Class)]
	for pool.Len() > 0 && (*pool)[0] <= e.Dispatch {
		heap.Pop(pool)
	}
	if pool.Len() >= c.cfg.RSPerClass {
		c.fail(&e, "RS overflow: %d older same-pool instructions wait to issue at dispatch, capacity %d",
			pool.Len(), c.cfg.RSPerClass)
	}
	heap.Push(pool, e.Issue)

	// No instruction issues before its sources broadcast on the CDB.
	if e.Src1 != trace.RegNone && e.Issue < c.regReady[e.Src1] {
		c.fail(&e, "issued at %d before src1 r%d broadcast at %d", e.Issue, e.Src1, c.regReady[e.Src1])
	}
	if e.Src2 != trace.RegNone && e.Issue < c.regReady[e.Src2] {
		c.fail(&e, "issued at %d before src2 r%d broadcast at %d", e.Issue, e.Src2, c.regReady[e.Src2])
	}
	if e.Dst != trace.RegNone {
		c.regReady[e.Dst] = e.Complete
	}

	// LSQ forwarding only from older stores to the same word.
	if e.FwdUsed {
		if e.Class != trace.Load {
			c.fail(&e, "forwarding on a non-load")
		} else if sr, ok := c.storeComplete[e.Word]; !ok {
			c.fail(&e, "forwarded from word %#x with no older store", e.Word)
		} else if sr != e.FwdFrom {
			c.fail(&e, "forwarded from cycle %d but last older store to word %#x completes at %d",
				e.FwdFrom, e.Word, sr)
		} else if e.Complete != e.FwdFrom+c.cfg.ForwardLatency {
			c.fail(&e, "forward-bound load completes at %d, want store %d + forward latency %d",
				e.Complete, e.FwdFrom, c.cfg.ForwardLatency)
		}
	}
	if e.Class == trace.Store {
		c.storeComplete[e.Word] = e.Complete
	}
}

// Count returns the number of instructions recorded; comparing it with
// the core's Instrs closes the "retires exactly once" loop end-to-end.
func (c *Checker) Count() uint64 { return c.nextSeq }

// Violations returns the recorded invariant violations (at most
// maxViolations, oldest first).
func (c *Checker) Violations() []string { return c.violations }

// Err returns nil when every invariant held, or an error summarizing
// the first violations otherwise.
func (c *Checker) Err() error {
	if len(c.violations) == 0 {
		return nil
	}
	return fmt.Errorf("pipeline invariants violated (%d recorded):\n  %s",
		len(c.violations), joinLines(c.violations))
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "\n  "
		}
		out += s
	}
	return out
}
