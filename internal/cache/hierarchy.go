package cache

import "jrs/internal/trace"

// Hierarchy couples a split L1 instruction/data cache pair to the native
// trace stream. It is the standard memory-system observer the experiment
// harness attaches: every instruction fetch probes the I-cache at the PC
// and every Load/Store probes the D-cache at the effective address, with
// the instruction's Phase attributed to the per-phase counters so the
// translate portion of JIT execution can be isolated (Figure 5).
type Hierarchy struct {
	I *Cache
	D *Cache
	// DirectInstall, when set, models the paper's §6 "generate code into
	// the I-cache" proposal: stores into the code cache bypass the
	// D-cache and install the line in the I-cache instead.
	DirectInstall bool
	// CodeLow/CodeHigh bound the code-cache segment used by
	// DirectInstall filtering.
	CodeLow, CodeHigh uint64
}

// NewHierarchy builds a split hierarchy with the two configurations.
func NewHierarchy(icfg, dcfg Config) *Hierarchy {
	return &Hierarchy{I: New(icfg), D: New(dcfg)}
}

// PaperDefault returns the headline configuration of Table 3: 64KB
// caches, 32-byte lines, 2-way I and 4-way D, write-allocate.
func PaperDefault() *Hierarchy {
	return NewHierarchy(
		Config{Name: "I", Size: 64 << 10, LineSize: 32, Assoc: 2, WriteAllocate: true},
		Config{Name: "D", Size: 64 << 10, LineSize: 32, Assoc: 4, WriteAllocate: true},
	)
}

// Emit implements trace.Sink.
func (h *Hierarchy) Emit(in trace.Inst) { h.EmitBatch([]trace.Inst{in}) }

// step is one instruction's probes, phase attribution already set.
func (h *Hierarchy) step(in *trace.Inst) {
	h.I.Access(in.PC, false)
	switch in.Class {
	case trace.Load:
		h.D.Access(in.Addr, false)
	case trace.Store:
		if h.DirectInstall && in.Addr >= h.CodeLow && in.Addr < h.CodeHigh {
			h.I.InstallLine(in.Addr)
			return
		}
		h.D.Access(in.Addr, true)
	}
}

// EmitBatch implements trace.Sink. Phase attribution is set at
// phase-change boundaries within the batch: runs of same-phase
// instructions (the overwhelmingly common case — phase only changes at
// interpreter/translator/loader transitions) pay for it once instead of
// twice per instruction. Setting the same phase repeatedly is
// idempotent, so batch boundaries never change results.
func (h *Hierarchy) EmitBatch(batch []trace.Inst) {
	const noPhase = trace.Phase(0xFF)
	cur := noPhase
	for i := range batch {
		in := &batch[i]
		if in.Phase != cur {
			cur = in.Phase
			h.I.SetPhase(int(cur))
			h.D.SetPhase(int(cur))
		}
		h.step(in)
	}
}

// Interval is one sampling window of miss counts (Figure 6's time
// profile).
type Interval struct {
	Instrs  uint64
	IMisses uint64
	DMisses uint64
	DRefs   uint64
	IRefs   uint64
}

// Sampler wraps a Hierarchy and records per-window miss counts every
// Window instructions, reproducing the paper's miss-rate-over-time plots.
type Sampler struct {
	H      *Hierarchy
	Window uint64

	count  uint64
	lastI  Stats
	lastD  Stats
	Series []Interval
}

// NewSampler samples h every window instructions.
func NewSampler(h *Hierarchy, window uint64) *Sampler {
	return &Sampler{H: h, Window: window}
}

// Emit implements trace.Sink.
func (s *Sampler) Emit(in trace.Inst) { s.EmitBatch([]trace.Inst{in}) }

// EmitBatch implements trace.Sink, splitting the batch at sampling
// window boundaries so every window closes at exactly the same
// instruction whatever the batch partition.
func (s *Sampler) EmitBatch(batch []trace.Inst) {
	for len(batch) > 0 {
		room := s.Window - s.count%s.Window
		n := uint64(len(batch))
		if n > room {
			n = room
		}
		s.H.EmitBatch(batch[:n])
		s.count += n
		if s.count%s.Window == 0 {
			s.flush()
		}
		batch = batch[n:]
	}
}

func (s *Sampler) flush() {
	i, d := s.H.I.Stats, s.H.D.Stats
	s.Series = append(s.Series, Interval{
		Instrs:  s.count,
		IMisses: i.Misses() - s.lastI.Misses(),
		DMisses: d.Misses() - s.lastD.Misses(),
		IRefs:   i.Refs() - s.lastI.Refs(),
		DRefs:   d.Refs() - s.lastD.Refs(),
	})
	s.lastI, s.lastD = i, d
}

// Finish flushes a trailing partial window, if any.
func (s *Sampler) Finish() {
	if s.count%s.Window != 0 {
		s.flush()
	}
}
