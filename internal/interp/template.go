package interp

import (
	"jrs/internal/bytecode"
	"jrs/internal/emit"
	"jrs/internal/trace"
)

// Every bytecode emits the same dispatch sequence, handler prologue and
// handler epilogue but for seven addresses, the way a template
// interpreter such as HotSpot's generates each bytecode's code once at
// start-up. So each opcode's fixed stream is captured once per process
// by running emitHead and emitTail into a recording sink, and Step
// copies it, patches the seven addresses and delivers it in one
// Batcher.AddN. A template is the Seq code's output by construction.

// emitHead emits op's dispatch sequence and handler prologue for the
// bytecode at bc in a frame whose locals start at locals, and returns
// the Seq the handler body continues.
func emitHead(em *emit.Emitter, op bytecode.Op, bc, locals uint64) *emit.Seq {
	// Dispatch: load opcode byte (data read of the bytecode stream),
	// opcode range check and exception poll (the loop's conditional
	// branches, well predicted but diluting the indirect jump's share
	// of control transfers as in a real C interpreter), decode,
	// dispatch-table load, register-indirect jump.
	d := em.At(dispatchPC)
	d.Load(bc).ALU(1).Load(bc+1).ALU(1).
		Branch(false, dispatchPC+0x80).
		ALU(2).Branch(false, dispatchPC+0x80).
		Load(dispatchTable + uint64(op)*8).ALU(1).IJump(HandlerPC(op))

	// Handler prologue: operand decode, PC bookkeeping and safety checks
	// common to every JDK-1.1-style C handler. Break() decouples the
	// handler's data chain from the decode chain, exposing the
	// across-bytecode parallelism the paper's ILP study observes in
	// interpreted execution.
	h := em.At(HandlerPC(op))
	padALU(h, 4, 2)
	h.Load(locals - 24).ALU(1).Load(locals - 32).Break()
	return h
}

// emitTail emits op's handler epilogue (non-trapping opcodes) for a
// frame whose locals start at locals: advance the interpreter's
// in-memory PC and SP registers (JDK 1.1.6 kept the frame state in the
// ExecEnv structure, not in machine registers) and loop back.
func emitTail(em *emit.Emitter, op bytecode.Op, locals uint64) {
	ep := em.At(HandlerPC(op) + 0xC0)
	ep.ALU(3).Store(locals - 16).Break().
		Load(locals - 24).ALU(2).Store(locals - 24).
		Jump(dispatchPC)
}

// template is one opcode's captured stream: head is emitHead's, tail
// emitTail's, and body the position emitHead returns the Seq at.
type template struct {
	head, tail []trace.Inst
	body       emit.Pos
}

// The holes of a template are the instructions whose address is the
// bytecode's (bcHoles, in head) or the locals' (headLocalsHoles,
// tailLocalsHoles) plus an offset. Templates are captured at address
// 0, so a hole holds its offset and patching adds the base.
var (
	bcHoles         = [...]int{0, 2}
	headLocalsHoles = [...]int{15, 17}
	tailLocalsHoles = [...]int{3, 4, 7}
)

// maxTemplate is the length of the longest template, head or tail.
const maxTemplate = 18

// templates holds every opcode's template, in the phase the
// interpreter emits in.
var templates = func() (ts [bytecode.NumOps]template) {
	var rec recorder
	em := emit.New(&rec, trace.PhaseExec)
	for op := range ts {
		t := &ts[op]
		t.body = emitHead(em, bytecode.Op(op), 0, 0).Pos()
		t.head = rec.take()
		emitTail(em, bytecode.Op(op), 0)
		t.tail = rec.take()
	}
	return ts
}()

// recorder is a sink that keeps what it is sent until take.
type recorder struct{ insts []trace.Inst }

func (r *recorder) Emit(in trace.Inst) { r.insts = append(r.insts, in) }

func (r *recorder) EmitBatch(batch []trace.Inst) { r.insts = append(r.insts, batch...) }

func (r *recorder) take() []trace.Inst {
	out := r.insts
	r.insts = nil
	return out
}

// head emits t's head for the bytecode at bc in a frame whose locals
// start at locals. The handler body continues with
// in.EM.Resume(t.body), which the caller makes so that the Seq stays
// on its stack.
func (in *Interp) head(t *template, bc, locals uint64) {
	buf := in.buf[:len(t.head)]
	copy(buf, t.head)
	for _, i := range bcHoles {
		buf[i].Addr += bc
	}
	for _, i := range headLocalsHoles {
		buf[i].Addr += locals
	}
	in.emitN(buf)
}

// tail emits t's tail for a frame whose locals start at locals.
func (in *Interp) tail(t *template, locals uint64) {
	buf := in.buf[:len(t.tail)]
	copy(buf, t.tail)
	for _, i := range tailLocalsHoles {
		buf[i].Addr += locals
	}
	in.emitN(buf)
}

// emitN delivers a patched template in the emitter's phase.
func (in *Interp) emitN(buf []trace.Inst) {
	if p := in.EM.Phase; p != trace.PhaseExec {
		for i := range buf {
			buf[i].Phase = p
		}
	}
	in.EM.EmitN(buf)
}
