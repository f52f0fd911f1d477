// Package emit provides the template-sequence emitter with which the
// simulated runtime components (interpreter handlers, runtime services,
// the JIT translator's own execution) express their native instruction
// streams.
//
// Each component owns a code region at a fixed simulated address; a Seq
// walks successive PCs in that region emitting one trace.Inst per native
// instruction with realistic register dependence chains (each emitted
// instruction reads the previous one's destination by default), so the
// pipeline model observes true dependences and the I-cache observes the
// component's real footprint and reuse.
package emit

import (
	"jrs/internal/isa"
	"jrs/internal/trace"
)

// Emitter is the per-engine handle to the trace stream.
type Emitter struct {
	// Batch receives all instructions: every emit is a concrete buffer
	// append and the downstream interface dispatch happens once per
	// batch, Shade-style. All of an engine's emitters (interpreter, JIT
	// translator, native CPU, runtime services, class loading) share
	// the engine's one Batcher, so the merged stream keeps exact
	// program order. Hot per-inst call sites (Seq.emit, the native CPU)
	// append to it directly so the append inlines without an
	// intermediate call.
	Batch *trace.Batcher
	// Phase tags everything emitted.
	Phase trace.Phase
	// Count is the number of instructions emitted through this emitter,
	// the time proxy used by the §3 cost accounting.
	Count uint64
}

// New returns an emitter over sink in phase p. A sink that is not
// already a *trace.Batcher (nil = trace.Discard) is wrapped in a
// capacity-1 Batcher, so delivery stays immediate and in order.
func New(sink trace.Sink, p trace.Phase) *Emitter {
	b, ok := sink.(*trace.Batcher)
	if !ok {
		b = trace.NewBatcher(sink, 1)
	}
	return &Emitter{Batch: b, Phase: p}
}

// Emit delivers one instruction, counting it.
func (e *Emitter) Emit(in trace.Inst) {
	e.Count++
	e.Batch.Add(in)
}

// EmitN delivers a sequence of instructions in order, counting them.
func (e *Emitter) EmitN(insts []trace.Inst) {
	e.Count += uint64(len(insts))
	e.Batch.AddN(insts)
}

// Seq walks a template starting at a fixed PC. The zero register
// convention: the first instruction's sources are "none"; afterwards each
// instruction chains Src1 to the previous destination unless the template
// breaks the chain explicitly.
type Seq struct {
	e       *Emitter
	pc      uint64
	prevDst uint8
	// regCursor rotates destination registers through the scratch range
	// so distinct template positions use distinct (deterministic)
	// registers.
	regCursor uint8
}

// At starts a sequence at pc.
func (e *Emitter) At(pc uint64) *Seq {
	return &Seq{e: e, pc: pc, prevDst: trace.RegNone, regCursor: isa.RTmp0}
}

// Pos is where a sequence stands: its next PC, the register its chain
// continues from and its register cursor.
type Pos struct {
	PC                 uint64
	PrevDst, RegCursor uint8
}

// Pos returns the sequence's position.
func (s *Seq) Pos() Pos { return Pos{s.pc, s.prevDst, s.regCursor} }

// Resume continues a sequence from p, as if the instructions that led
// there had been emitted through this emitter.
func (e *Emitter) Resume(p Pos) *Seq {
	return &Seq{e: e, pc: p.PC, prevDst: p.PrevDst, regCursor: p.RegCursor}
}

// PC returns the next instruction address in the sequence.
func (s *Seq) PC() uint64 { return s.pc }

func (s *Seq) nextReg() uint8 {
	r := s.regCursor
	s.regCursor++
	if s.regCursor >= isa.RVar0 {
		s.regCursor = isa.RTmp0
	}
	return r
}

func (s *Seq) emit(in trace.Inst) *Seq {
	in.PC = s.pc
	in.Phase = s.e.Phase
	// Manually flattened Emitter.Emit: this is the grid's single
	// hottest call site, and keeping the batched append inline here
	// (rather than behind another call) is worth several percent of
	// whole-grid time.
	e := s.e
	e.Count++
	e.Batch.Add(in)
	s.pc += isa.WordSize
	if in.Dst != trace.RegNone {
		s.prevDst = in.Dst
	}
	return s
}

// ALU emits n chained integer ALU instructions.
func (s *Seq) ALU(n int) *Seq {
	for i := 0; i < n; i++ {
		d := s.nextReg()
		s.emit(trace.Inst{Class: trace.ALU, Src1: s.prevDst, Src2: trace.RegNone, Dst: d})
	}
	return s
}

// FPU emits n chained floating-point instructions.
func (s *Seq) FPU(n int) *Seq {
	for i := 0; i < n; i++ {
		d := s.nextReg() + (isa.FReg0 - isa.RTmp0)
		s.emit(trace.Inst{Class: trace.FPU, Src1: s.prevDst, Src2: trace.RegNone, Dst: d})
	}
	return s
}

// Load emits a load from addr whose result feeds the chain.
func (s *Seq) Load(addr uint64) *Seq {
	return s.emit(trace.Inst{Class: trace.Load, Addr: addr, Src1: s.prevDst,
		Src2: trace.RegNone, Dst: s.nextReg()})
}

// Store emits a store of the chain value to addr.
func (s *Seq) Store(addr uint64) *Seq {
	return s.emit(trace.Inst{Class: trace.Store, Addr: addr, Src1: s.prevDst,
		Src2: s.prevDst, Dst: trace.RegNone})
}

// Branch emits a conditional branch on the chain value.
func (s *Seq) Branch(taken bool, target uint64) *Seq {
	return s.emit(trace.Inst{Class: trace.Branch, Target: target, Taken: taken,
		Src1: s.prevDst, Src2: trace.RegNone, Dst: trace.RegNone})
}

// Jump emits an unconditional direct jump.
func (s *Seq) Jump(target uint64) *Seq {
	return s.emit(trace.Inst{Class: trace.Jump, Target: target, Taken: true,
		Src1: trace.RegNone, Src2: trace.RegNone, Dst: trace.RegNone})
}

// Call emits a direct call.
func (s *Seq) Call(target uint64) *Seq {
	return s.emit(trace.Inst{Class: trace.Call, Target: target, Taken: true,
		Src1: trace.RegNone, Src2: trace.RegNone, Dst: isa.RLR})
}

// Ret emits a return through the link register.
func (s *Seq) Ret(target uint64) *Seq {
	return s.emit(trace.Inst{Class: trace.Ret, Target: target, Taken: true,
		Src1: isa.RLR, Src2: trace.RegNone, Dst: trace.RegNone})
}

// IJump emits a register-indirect jump (the interpreter's dispatch).
func (s *Seq) IJump(target uint64) *Seq {
	return s.emit(trace.Inst{Class: trace.IndirectJump, Target: target, Taken: true,
		Src1: s.prevDst, Src2: trace.RegNone, Dst: trace.RegNone})
}

// ICall emits a register-indirect call (virtual dispatch).
func (s *Seq) ICall(target uint64) *Seq {
	return s.emit(trace.Inst{Class: trace.IndirectCall, Target: target, Taken: true,
		Src1: s.prevDst, Src2: trace.RegNone, Dst: isa.RLR})
}

// Break cuts the dependence chain (next instruction starts independent).
func (s *Seq) Break() *Seq {
	s.prevDst = trace.RegNone
	return s
}
