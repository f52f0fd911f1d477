package trace

// This file implements the batched trace transport. Shade — the tracing
// tool the paper's methodology is built on — did not deliver trace
// records to analyzers one at a time: it filled a user-supplied buffer
// of trace records and handed the analyzer whole batches, amortizing the
// per-record delivery cost over the buffer length. The same structure is
// reproduced here: producers append instructions to a Batcher's buffer
// with a concrete (devirtualized) call, and consumers receive fixed-size
// []Inst batches through Sink.EmitBatch, paying the interface
// dispatch, fan-out and phase-bookkeeping costs once per batch instead
// of once per simulated instruction.

// DefaultBatchSize is the delivery buffer capacity engines use unless
// overridden. Large enough to amortize dispatch, small enough that a
// batch of Inst records (32 bytes each) stays L1/L2-resident in the
// *host* cache while the consumers walk it.
const DefaultBatchSize = 1024

// BatchSize is the process-wide batch capacity of every engine's
// transport. The batching tests vary it (1 = per-instruction delivery)
// to check that batch boundaries never change results.
var BatchSize = DefaultBatchSize

// EmitBatchTo delivers a non-empty batch to s; an empty batch is
// dropped.
func EmitBatchTo(s Sink, batch []Inst) {
	if len(batch) > 0 {
		s.EmitBatch(batch)
	}
}

// Batcher ring-buffers per-instruction emits and flushes fixed-size
// batches downstream. It is the engine-side half of the transport: all
// of an engine's emitters share one Batcher so the merged stream stays
// in exact program order, and the engine flushes at observation
// boundaries (sink swaps, end of run).
//
// Add is deliberately tiny — a buffer store, an increment and a
// capacity check — so it inlines into the producers' emit paths; every
// downstream cost (the engine clock included) is paid per batch at
// Flush. Clock-style consumers that need an exact mid-run instruction
// count add Pending() to their flushed total (core.Engine.now does).
//
// A Batcher is not safe for concurrent use; each simulated engine owns
// one (the parallel harness gives every cell its own engine).
type Batcher struct {
	out Sink
	buf []Inst
	n   int
}

// NewBatcher builds a batcher delivering to out (nil = Discard) in
// batches of size (<=0 selects the BatchSize default).
func NewBatcher(out Sink, size int) *Batcher {
	if out == nil {
		out = Discard
	}
	if size <= 0 {
		size = BatchSize
	}
	if size < 1 {
		size = 1
	}
	return &Batcher{out: out, buf: make([]Inst, size)}
}

// Add appends one instruction, flushing when the buffer fills. This is
// the hot path of the whole simulator grid: a concrete, inlinable
// buffer append replacing what used to be several interface dispatches
// per instruction.
func (b *Batcher) Add(in Inst) {
	b.buf[b.n] = in
	b.n++
	if b.n == len(b.buf) {
		b.Flush()
	}
}

// AddN appends insts in order, flushing exactly where len(insts)
// calls of Add would. Template emitters deliver a whole precomputed
// instruction sequence with it.
func (b *Batcher) AddN(insts []Inst) {
	for len(insts) > 0 {
		k := copy(b.buf[b.n:], insts)
		b.n += k
		insts = insts[k:]
		if b.n == len(b.buf) {
			b.Flush()
		}
	}
}

// Emit implements Sink.
func (b *Batcher) Emit(in Inst) { b.Add(in) }

// EmitBatch implements Sink: buffered instructions flush first so
// order is preserved, then the incoming batch is forwarded whole.
func (b *Batcher) EmitBatch(batch []Inst) {
	if len(batch) == 0 {
		return
	}
	b.Flush()
	EmitBatchTo(b.out, batch)
}

// Flush delivers any buffered instructions downstream. Engines call it
// at observation boundaries: before a Switchable swap (the AOT
// precompile window), at engine mode switches, and at end-of-run —
// every point where a consumer or the harness is about to look at
// downstream state.
func (b *Batcher) Flush() {
	if b.n == 0 {
		return
	}
	n := b.n
	b.n = 0
	EmitBatchTo(b.out, b.buf[:n])
}

// Pending returns the number of buffered, undelivered instructions.
func (b *Batcher) Pending() int { return b.n }

// Cap returns the batch capacity.
func (b *Batcher) Cap() int { return len(b.buf) }
