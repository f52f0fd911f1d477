// Package interp implements the switch-dispatch bytecode interpreter, the
// first of the paper's two JVM execution styles.
//
// Functionally the interpreter executes bytecode semantics directly;
// architecturally it behaves like the C interpreter the paper traced: for
// every bytecode it emits the native template of the dispatch loop — a
// *data* load of the bytecode from the method's image in the class
// segment, a decode, a dispatch-table load and a register-indirect jump to
// the opcode's handler — followed by the handler body, whose loads and
// stores hit the real simulated addresses of the operand stack, locals,
// heap objects and class statics. The dispatch indirect jump at a single
// PC with per-opcode-varying targets is exactly the structure whose poor
// predictability the paper's branch and ILP studies measure.
package interp

import (
	"jrs/internal/bytecode"
	"jrs/internal/emit"
	"jrs/internal/mem"
	"jrs/internal/rt"
	"jrs/internal/trace"
	"jrs/internal/vm"
)

// Code-layout constants for the interpreter's native image.
const (
	// dispatchPC is the top of the interpreter loop.
	dispatchPC = mem.HandlerBase
	// handlerStride spaces per-opcode handlers (64 instruction slots
	// each); the whole handler region is ~`NumOps`*256 bytes ≈ 18KB,
	// matching the paper's observation that the interpreter's switch
	// fits in a state-of-the-art I-cache.
	handlerBase   = mem.HandlerBase + 0x1000
	handlerStride = 0x100
	// dispatchTable is the data-side jump table indexed by opcode.
	dispatchTable = mem.VMBase + 0x8000
)

// HandlerPC returns the fixed native address of op's handler.
func HandlerPC(op bytecode.Op) uint64 {
	return handlerBase + uint64(op)*handlerStride
}

// maxOperandStack is the per-frame operand stack allotment in slots.
const maxOperandStack = 48

// Frame is one interpreter activation.
type Frame struct {
	M  *bytecode.Method
	PC int
	// Locals and Stack hold functional values (floats as bits).
	Locals []int64
	Stack  []int64
	SP     int
	// localsAddr and stackAddr are the simulated addresses of slot 0.
	localsAddr uint64
	stackAddr  uint64
	// SyncObj is the monitor taken on entry of a synchronized method.
	SyncObj uint64
	// Mark and Self support the trampoline's self-time accounting.
	Mark uint64
	Self uint64
}

// FrameWords returns the simulated stack-space footprint of a frame for m.
func FrameWords(m *bytecode.Method) uint64 {
	return uint64(m.MaxLocals+maxOperandStack) + 4
}

// Interp is the interpreter engine.
type Interp struct {
	VM *vm.VM
	EM *emit.Emitter
	// Bytecodes counts executed bytecodes.
	Bytecodes uint64
	// Cancel, when non-nil, is polled at slice entry (the
	// instruction-budget path); a non-nil return ends the slice with a
	// yield so the engine's scheduler can abort the run.
	Cancel func() error

	// buf is the scratch buffer templates are patched in.
	buf [maxTemplate]trace.Inst
}

// New builds an interpreter for v emitting application-phase instructions
// to the same sink as v's runtime emitter. Sharing the runtime's sink —
// in a batching engine, its trace.Batcher — keeps the dispatch-loop and
// handler templates interleaved in exact program order with runtime and
// JIT emissions while the transport buffers deliveries downstream.
func New(v *vm.VM) *Interp {
	return &Interp{VM: v, EM: emit.New(v.RT.Batch, trace.PhaseExec)}
}

// NewFrame builds a frame for m with args (receiver first for instance
// methods), placing it at the thread's current stack top.
func (in *Interp) NewFrame(t *vm.Thread, m *bytecode.Method, args []int64) *Frame {
	f := &Frame{
		M:          m,
		Locals:     make([]int64, m.MaxLocals),
		Stack:      make([]int64, maxOperandStack),
		localsAddr: t.StackTop,
		stackAddr:  t.StackTop + uint64(m.MaxLocals)*8,
	}
	copy(f.Locals, args)
	t.StackTop += FrameWords(m) * 8
	// Frame setup: store the incoming arguments into the locals area.
	s := in.EM.At(dispatchPC - 0x800)
	for i := range args {
		s.Store(f.localAddr(i))
	}
	s.ALU(2).Store(f.localsAddr - 8) // link frame
	return f
}

// PopFrame releases f's simulated stack space.
func (in *Interp) PopFrame(t *vm.Thread, f *Frame) {
	t.StackTop -= FrameWords(f.M) * 8
}

func (f *Frame) localAddr(i int) uint64 { return f.localsAddr + uint64(i)*8 }
func (f *Frame) slotAddr(i int) uint64  { return f.stackAddr + uint64(i)*8 }

// push appends a value functionally (the caller emits the store).
func (f *Frame) push(v int64) {
	f.Stack[f.SP] = v
	f.SP++
}

func (f *Frame) pop() int64 {
	f.SP--
	return f.Stack[f.SP]
}

// Push exposes push for the trampoline (delivering call results). It also
// emits the result store the calling convention performs.
func (in *Interp) Push(f *Frame, v int64) {
	f.push(v)
	in.EM.At(HandlerPC(bytecode.Nop)).Store(f.slotAddr(f.SP - 1))
}

// bcAddr returns the simulated address of the current bytecode.
func (f *Frame) bcAddr() uint64 { return f.M.Addr + f.M.PCOffsets[f.PC] }

// Run interprets up to quantum bytecodes in f, returning the trap that
// suspended it (TrapNone when the quantum expired). A pending
// cancellation yields immediately instead of spending the budget; the
// engine's scheduler converts the condition into the run's error.
func (in *Interp) Run(t *vm.Thread, f *Frame, quantum int) rt.Trap {
	if in.Cancel != nil && in.Cancel() != nil {
		return rt.Trap{Kind: rt.TrapYield}
	}
	for i := 0; i < quantum; i++ {
		tr := in.Step(t, f)
		if tr.Kind != 0 {
			return tr
		}
	}
	return rt.Trap{Kind: rt.TrapNone}
}

// Step executes one bytecode. The returned trap is zero (TrapNone) for
// ordinary instructions.
func (in *Interp) Step(t *vm.Thread, f *Frame) rt.Trap {
	v := in.VM
	ins := f.M.Code[f.PC]
	op := ins.Op
	in.Bytecodes++

	if int(op) >= len(templates) {
		vm.Throwf("InternalError", "interpreter: unimplemented opcode %v", op)
	}
	tp := &templates[op]
	in.head(tp, f.bcAddr(), f.localsAddr)
	h := in.EM.Resume(tp.body)
	next := f.PC + 1

	switch op {
	case bytecode.Nop:
		h.ALU(1)

	case bytecode.IConst:
		f.push(int64(ins.A))
		h.ALU(1).Store(f.slotAddr(f.SP - 1))
	case bytecode.FConst:
		ea := vm.PoolFloatAddr(f.M.Class, ins.A)
		f.push(v.Mem.Load(ea))
		h.Load(ea).Store(f.slotAddr(f.SP - 1))
	case bytecode.SConst:
		ea := vm.PoolStringAddr(f.M.Class, ins.A)
		f.push(v.Mem.Load(ea))
		h.Load(ea).Store(f.slotAddr(f.SP - 1))
	case bytecode.AConstNull:
		f.push(0)
		h.ALU(1).Store(f.slotAddr(f.SP - 1))

	case bytecode.ILoad, bytecode.FLoad, bytecode.ALoad:
		f.push(f.Locals[ins.A])
		h.Load(f.localAddr(int(ins.A))).Store(f.slotAddr(f.SP - 1))
	case bytecode.IStore, bytecode.FStore, bytecode.AStore:
		f.Locals[ins.A] = f.pop()
		h.Load(f.slotAddr(f.SP)).Store(f.localAddr(int(ins.A)))
	case bytecode.IInc:
		f.Locals[ins.A] += int64(ins.B)
		h.Load(f.localAddr(int(ins.A))).ALU(1).Store(f.localAddr(int(ins.A)))

	case bytecode.Pop:
		f.pop()
		h.ALU(1)
	case bytecode.Dup:
		x := f.pop()
		f.push(x)
		f.push(x)
		h.Load(f.slotAddr(f.SP - 2)).Store(f.slotAddr(f.SP - 1))
	case bytecode.Swap:
		b, a := f.pop(), f.pop()
		f.push(b)
		f.push(a)
		h.Load(f.slotAddr(f.SP - 1)).Load(f.slotAddr(f.SP - 2)).
			Store(f.slotAddr(f.SP - 1)).Store(f.slotAddr(f.SP - 2))

	case bytecode.IAdd, bytecode.ISub, bytecode.IMul, bytecode.IDiv,
		bytecode.IRem, bytecode.IAnd, bytecode.IOr, bytecode.IXor,
		bytecode.IShl, bytecode.IShr, bytecode.IUshr:
		b, a := f.pop(), f.pop()
		f.push(intALU(op, a, b))
		alu := 1
		if op == bytecode.IDiv || op == bytecode.IRem {
			alu = 8 // software-assisted divide
		}
		h.Load(f.slotAddr(f.SP + 1)).Load(f.slotAddr(f.SP)).ALU(alu).
			Store(f.slotAddr(f.SP - 1))
	case bytecode.INeg:
		f.push(-f.pop())
		h.Load(f.slotAddr(f.SP - 1)).ALU(1).Store(f.slotAddr(f.SP - 1))

	case bytecode.FAdd, bytecode.FSub, bytecode.FMul, bytecode.FDiv:
		b, a := vm.Bits2F(f.pop()), vm.Bits2F(f.pop())
		f.push(vm.F2Bits(floatALU(op, a, b)))
		h.Load(f.slotAddr(f.SP + 1)).Load(f.slotAddr(f.SP)).FPU(1).
			Store(f.slotAddr(f.SP - 1))
	case bytecode.FNeg:
		f.push(vm.F2Bits(-vm.Bits2F(f.pop())))
		h.Load(f.slotAddr(f.SP - 1)).FPU(1).Store(f.slotAddr(f.SP - 1))
	case bytecode.FCmp:
		b, a := vm.Bits2F(f.pop()), vm.Bits2F(f.pop())
		var r int64
		switch {
		case a < b:
			r = -1
		case a > b:
			r = 1
		}
		f.push(r)
		h.Load(f.slotAddr(f.SP + 1)).Load(f.slotAddr(f.SP)).FPU(1).ALU(1).
			Store(f.slotAddr(f.SP - 1))

	case bytecode.I2F:
		f.push(vm.F2Bits(float64(f.pop())))
		h.Load(f.slotAddr(f.SP - 1)).FPU(1).Store(f.slotAddr(f.SP - 1))
	case bytecode.F2I:
		f.push(int64(vm.Bits2F(f.pop())))
		h.Load(f.slotAddr(f.SP - 1)).FPU(1).Store(f.slotAddr(f.SP - 1))

	case bytecode.NewArray:
		n := f.pop()
		ref := v.AllocArray(int(ins.A), n)
		f.push(int64(ref))
		h.Load(f.slotAddr(f.SP - 1)).ALU(1).Call(mem.RuntimeBase + 0x100).
			Store(f.slotAddr(f.SP - 1))
	case bytecode.ArrayLength:
		ref := uint64(f.pop())
		if v.NullElidable(f.M, f.PC) {
			v.NoteElidedNull(f.M, f.PC, ref)
		} else {
			v.CheckNull(ref)
		}
		f.push(v.ArrayLen(ref))
		h.Load(f.slotAddr(f.SP - 1)).Load(ref + 16).Store(f.slotAddr(f.SP - 1))

	case bytecode.IALoad, bytecode.FALoad, bytecode.AALoad, bytecode.CALoad:
		idx := f.pop()
		ref := uint64(f.pop())
		elide := v.BoundsElidable(f.M, f.PC)
		if elide {
			v.NoteElidedBounds(f.M, f.PC, ref, idx)
		} else {
			v.CheckBounds(ref, idx)
		}
		kind := arrayKindOf(op)
		ea := vm.ElemAddr(ref, kind, idx)
		var val int64
		if kind == bytecode.KindChar {
			val = int64(v.Mem.LoadByte(ea))
		} else {
			val = v.Mem.Load(ea)
		}
		f.push(val)
		hs := h.Load(f.slotAddr(f.SP + 1)).Load(f.slotAddr(f.SP))
		if !elide {
			// bounds check: length load plus trap branch
			hs = hs.Load(ref+16).Branch(false, HandlerPC(op)+0xE0)
		}
		hs.ALU(2).Load(ea).Store(f.slotAddr(f.SP - 1))
	case bytecode.IAStore, bytecode.FAStore, bytecode.AAStore, bytecode.CAStore:
		val := f.pop()
		idx := f.pop()
		ref := uint64(f.pop())
		elide := v.BoundsElidable(f.M, f.PC)
		if elide {
			v.NoteElidedBounds(f.M, f.PC, ref, idx)
		} else {
			v.CheckBounds(ref, idx)
		}
		kind := arrayKindOf(op)
		ea := vm.ElemAddr(ref, kind, idx)
		if kind == bytecode.KindChar {
			v.Mem.StoreByte(ea, byte(val))
		} else {
			v.Mem.Store(ea, val)
		}
		hs := h.Load(f.slotAddr(f.SP + 2)).Load(f.slotAddr(f.SP + 1)).
			Load(f.slotAddr(f.SP))
		if !elide {
			hs = hs.Load(ref+16).Branch(false, HandlerPC(op)+0xE0)
		}
		hs.ALU(2).Store(ea)

	case bytecode.Goto:
		next = int(ins.A)
		h.Jump(HandlerPC(bytecode.Goto) + 0x40)

	case bytecode.IfEq, bytecode.IfNe, bytecode.IfLt, bytecode.IfGe,
		bytecode.IfGt, bytecode.IfLe, bytecode.IfNull, bytecode.IfNonNull:
		x := f.pop()
		taken := unaryCond(op, x)
		if taken {
			next = int(ins.A)
		}
		h.Load(f.slotAddr(f.SP)).ALU(1).Branch(taken, HandlerPC(op)+0x80)

	case bytecode.IfICmpEq, bytecode.IfICmpNe, bytecode.IfICmpLt,
		bytecode.IfICmpGe, bytecode.IfICmpGt, bytecode.IfICmpLe,
		bytecode.IfACmpEq, bytecode.IfACmpNe:
		b, a := f.pop(), f.pop()
		taken := binCond(op, a, b)
		if taken {
			next = int(ins.A)
		}
		h.Load(f.slotAddr(f.SP+1)).Load(f.slotAddr(f.SP)).ALU(1).
			Branch(taken, HandlerPC(op)+0x80)

	case bytecode.New:
		cls := f.M.Class.Pool.Classes[ins.A].Resolved
		ref := v.AllocObject(cls)
		f.push(int64(ref))
		h.ALU(1).Call(mem.RuntimeBase + 0x100).Store(f.slotAddr(f.SP - 1))

	case bytecode.GetField:
		fr := &f.M.Class.Pool.Fields[ins.A]
		ref := uint64(f.pop())
		if v.NullElidable(f.M, f.PC) {
			v.NoteElidedNull(f.M, f.PC, ref)
		} else {
			v.CheckNull(ref)
		}
		ea := vm.FieldAddr(ref, fr.Resolved.Slot)
		f.push(v.Mem.Load(ea))
		h.Load(f.slotAddr(f.SP)).ALU(1).Load(ea).Store(f.slotAddr(f.SP - 1))
	case bytecode.PutField:
		fr := &f.M.Class.Pool.Fields[ins.A]
		val := f.pop()
		ref := uint64(f.pop())
		if v.NullElidable(f.M, f.PC) {
			v.NoteElidedNull(f.M, f.PC, ref)
		} else {
			v.CheckNull(ref)
		}
		ea := vm.FieldAddr(ref, fr.Resolved.Slot)
		v.Mem.Store(ea, val)
		h.Load(f.slotAddr(f.SP + 1)).Load(f.slotAddr(f.SP)).ALU(1).Store(ea)
	case bytecode.GetStatic:
		fr := &f.M.Class.Pool.Fields[ins.A]
		ea := fr.Owner.StaticBase + uint64(fr.Resolved.Slot)*8
		f.push(v.Mem.Load(ea))
		h.ALU(1).Load(ea).Store(f.slotAddr(f.SP - 1))
	case bytecode.PutStatic:
		fr := &f.M.Class.Pool.Fields[ins.A]
		ea := fr.Owner.StaticBase + uint64(fr.Resolved.Slot)*8
		v.Mem.Store(ea, f.pop())
		h.Load(f.slotAddr(f.SP)).ALU(1).Store(ea)

	case bytecode.MonitorEnter:
		ref := uint64(f.Stack[f.SP-1])
		// A blocked monitorenter re-executes after wake, re-noting the
		// elided check — symmetric with CheckNull re-running unelided.
		if v.NullElidable(f.M, f.PC) {
			v.NoteElidedNull(f.M, f.PC, ref)
		} else {
			v.CheckNull(ref)
		}
		if !v.LockObject(t.ID, ref) {
			// Re-execute on wake: leave the ref on the stack, don't
			// advance.
			return rt.Trap{Kind: rt.TrapBlock, Obj: ref}
		}
		f.pop()
		h.Load(f.slotAddr(f.SP)).Call(mem.RuntimeBase + 0x2000)
	case bytecode.MonitorExit:
		ref := uint64(f.pop())
		v.UnlockObject(t.ID, ref)
		h.Load(f.slotAddr(f.SP)).Call(mem.RuntimeBase + 0x2200)
		f.PC = next
		return rt.Trap{Kind: rt.TrapYield, Obj: ref}

	case bytecode.InvokeVirtual, bytecode.InvokeStatic, bytecode.InvokeSpecial:
		return in.invoke(f, ins, h, next)

	case bytecode.Return:
		in.emitReturn(h, f, false)
		return rt.Trap{Kind: rt.TrapReturn}
	case bytecode.IReturn, bytecode.FReturn, bytecode.AReturn:
		val := f.pop()
		in.emitReturn(h, f, true)
		return rt.Trap{Kind: rt.TrapReturn, Val: val, HasVal: true}

	default:
		vm.Throwf("InternalError", "interpreter: unimplemented opcode %v", op)
	}

	in.tail(tp, f.localsAddr)

	f.PC = next
	return rt.Trap{}
}

func (in *Interp) emitReturn(h *emit.Seq, f *Frame, hasVal bool) {
	if hasVal {
		h.Load(f.slotAddr(f.SP))
	}
	h.Load(f.localsAddr - 8).ALU(2).Ret(dispatchPC)
}

// invoke resolves the call target, pops the arguments, emits the call
// template, and traps to the trampoline. Sys.* intrinsics execute inline.
func (in *Interp) invoke(f *Frame, ins bytecode.Instr, h *emit.Seq, next int) rt.Trap {
	v := in.VM
	ref := &f.M.Class.Pool.Methods[ins.A]
	m := ref.Resolved
	nargs := len(m.Sig.Params)
	isVirtual := ins.Op == bytecode.InvokeVirtual

	if m.Class.Name == "Sys" {
		return in.intrinsic(f, m, h, next)
	}

	total := nargs
	if !m.IsStatic() {
		total++
	}
	args := make([]int64, total)
	for i := total - 1; i >= 0; i-- {
		args[i] = f.pop()
	}
	// Argument copy-out: load each operand slot (the callee's frame
	// setup stores them).
	for i := 0; i < total; i++ {
		h.Load(f.slotAddr(f.SP + i))
	}

	target := m
	if isVirtual {
		recv := uint64(args[0])
		if v.NullElidable(f.M, f.PC) {
			v.NoteElidedNull(f.M, f.PC, recv)
		} else {
			v.CheckNull(recv)
		}
		cls := v.ClassOf(recv)
		if cls == nil {
			vm.Throwf("InternalError", "virtual call on array receiver")
		}
		if m.VIndex < 0 || m.VIndex >= len(cls.VTable) {
			vm.Throwf("InternalError", "bad vtable slot for %s on %s", m.FullName(), cls.Name)
		}
		target = cls.VTable[m.VIndex]
		// Dispatch template: class-id load, vtable entry load, indirect
		// call whose target varies with the receiver class.
		h.Load(recv).ALU(2).Load(vm.VTableEntryAddr(cls.ID, m.VIndex)).
			ICall(target.Addr)
	} else {
		if !m.IsStatic() {
			if v.NullElidable(f.M, f.PC) {
				v.NoteElidedNull(f.M, f.PC, uint64(args[0]))
			} else {
				v.CheckNull(uint64(args[0]))
			}
		}
		h.ALU(1).Call(target.Addr)
	}

	f.PC = next
	return rt.Trap{Kind: rt.TrapCall, Target: target, Args: args, Virtual: isVirtual}
}

// intrinsic executes a Sys.* native method inline.
func (in *Interp) intrinsic(f *Frame, m *bytecode.Method, h *emit.Seq, next int) rt.Trap {
	v := in.VM
	h.ALU(1).Call(mem.RuntimeBase + 0x400)
	switch m.Name {
	case "print":
		v.PrintString(uint64(f.pop()))
	case "printi":
		v.PrintInt(f.pop())
	case "printf":
		v.PrintFloat(vm.Bits2F(f.pop()))
	case "printc":
		v.PrintChar(f.pop())
	case "spawn":
		obj := f.pop()
		f.PC = next
		return rt.Trap{Kind: rt.TrapSpawn, Args: []int64{obj}}
	case "join":
		id := f.pop()
		f.PC = next
		return rt.Trap{Kind: rt.TrapJoin, Args: []int64{id}}
	case "yield":
		f.PC = next
		return rt.Trap{Kind: rt.TrapYield}
	default:
		vm.Throwf("InternalError", "unknown intrinsic Sys.%s", m.Name)
	}
	f.PC = next
	return rt.Trap{}
}

// padALU emits total ALU instructions in independent chains of chunk,
// modeling decode/bookkeeping work with instruction-level parallelism.
func padALU(s *emit.Seq, total, chunk int) {
	for total > 0 {
		n := chunk
		if n > total {
			n = total
		}
		s.ALU(n).Break()
		total -= n
	}
}

func arrayKindOf(op bytecode.Op) int {
	switch op {
	case bytecode.IALoad, bytecode.IAStore:
		return bytecode.KindInt
	case bytecode.FALoad, bytecode.FAStore:
		return bytecode.KindFloat
	case bytecode.AALoad, bytecode.AAStore:
		return bytecode.KindRef
	default:
		return bytecode.KindChar
	}
}

func intALU(op bytecode.Op, a, b int64) int64 {
	switch op {
	case bytecode.IAdd:
		return a + b
	case bytecode.ISub:
		return a - b
	case bytecode.IMul:
		return a * b
	case bytecode.IDiv:
		if b == 0 {
			vm.Throwf("ArithmeticError", "divide by zero")
		}
		return a / b
	case bytecode.IRem:
		if b == 0 {
			vm.Throwf("ArithmeticError", "remainder by zero")
		}
		return a % b
	case bytecode.IAnd:
		return a & b
	case bytecode.IOr:
		return a | b
	case bytecode.IXor:
		return a ^ b
	case bytecode.IShl:
		return a << (uint64(b) & 63)
	case bytecode.IShr:
		return a >> (uint64(b) & 63)
	case bytecode.IUshr:
		return int64(uint64(a) >> (uint64(b) & 63))
	}
	panic("unreachable")
}

func floatALU(op bytecode.Op, a, b float64) float64 {
	switch op {
	case bytecode.FAdd:
		return a + b
	case bytecode.FSub:
		return a - b
	case bytecode.FMul:
		return a * b
	case bytecode.FDiv:
		return a / b
	}
	panic("unreachable")
}

func unaryCond(op bytecode.Op, x int64) bool {
	switch op {
	case bytecode.IfEq, bytecode.IfNull:
		return x == 0
	case bytecode.IfNe, bytecode.IfNonNull:
		return x != 0
	case bytecode.IfLt:
		return x < 0
	case bytecode.IfGe:
		return x >= 0
	case bytecode.IfGt:
		return x > 0
	case bytecode.IfLe:
		return x <= 0
	}
	panic("unreachable")
}

func binCond(op bytecode.Op, a, b int64) bool {
	switch op {
	case bytecode.IfICmpEq, bytecode.IfACmpEq:
		return a == b
	case bytecode.IfICmpNe, bytecode.IfACmpNe:
		return a != b
	case bytecode.IfICmpLt:
		return a < b
	case bytecode.IfICmpGe:
		return a >= b
	case bytecode.IfICmpGt:
		return a > b
	case bytecode.IfICmpLe:
		return a <= b
	}
	panic("unreachable")
}
