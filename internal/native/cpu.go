// Package native implements the simulated native CPU that executes
// JIT-installed code. Unlike the interpreter's template emission, this is
// a real machine: registers hold real values, loads and stores hit the
// simulated memory, branches resolve from data, and virtual dispatch
// loads real stub addresses out of the vtable metadata. Every executed
// instruction is emitted to the trace stream with its true PC, effective
// address, control target and register usage.
//
// Method calls and returns are not executed inline: reaching a method's
// entry stub (via jal/jalr) or a ret suspends the CPU with a trap so the
// mixed-mode trampoline in internal/core can run the callee under its own
// policy (compiled or interpreted).
package native

import (
	"fmt"

	"jrs/internal/bytecode"
	"jrs/internal/emit"
	"jrs/internal/isa"
	"jrs/internal/jit"
	"jrs/internal/mem"
	"jrs/internal/rt"
	"jrs/internal/trace"
	"jrs/internal/vm"
)

// Activation is one native method invocation in progress.
type Activation struct {
	C *jit.Compiled
	// PC is the index of the next instruction.
	PC int
	// Regs is the unified register file (integer 0-31, float 32-63 as
	// bits). Regs[0] is hardwired zero.
	Regs [isa.NumRegs]int64
	// FP is the frame base (also in Regs[RSP]).
	FP uint64
	// RetAddr is the caller's resume address, used as the trace target
	// of the final ret.
	RetAddr uint64
	// SyncObj is the monitor taken on entry of a synchronized method.
	SyncObj uint64
	// Mark and Self support the trampoline's self-time accounting.
	Mark uint64
	Self uint64
}

// Release returns the activation's frame space to the thread stack.
func (a *Activation) Release(t *vm.Thread) { t.StackTop -= a.C.FrameBytes }

// CPU executes native code for one VM.
type CPU struct {
	VM *vm.VM
	EM *emit.Emitter
	// Executed counts retired native instructions (application code
	// only, excluding runtime-service templates).
	Executed uint64
	// Cancel, when non-nil, is polled at slice entry (the
	// instruction-budget path); a non-nil return ends the slice with a
	// yield so the engine's scheduler can abort the run.
	Cancel func() error

	// Scratch for decoding the ABI of a call: the argument float-ness
	// vector, its registers and the decoded values. Sized for every
	// signature the ABI accepts, so a call allocates nothing.
	floats [2 * isa.NumArgRegs]bool
	regs   [2 * isa.NumArgRegs]uint8
	args   [2 * isa.NumArgRegs]int64
}

// New builds a CPU for v emitting to the VM's trace transport.
func New(v *vm.VM) *CPU {
	return &CPU{VM: v, EM: emit.New(v.RT.Batch, trace.PhaseExec)}
}

// Activate makes a an activation of cm with args marshalled into the ABI
// argument registers, its frame placed at the thread's stack top. It
// overwrites all of a, so one record serves call after call.
func (c *CPU) Activate(a *Activation, t *vm.Thread, cm *jit.Compiled, args []int64, retAddr uint64) {
	*a = Activation{C: cm, FP: t.StackTop, RetAddr: retAddr}
	a.Regs[isa.RSP] = int64(a.FP)
	for i, r := range c.argRegs(cm.M) {
		a.Regs[r] = args[i]
	}
	t.StackTop += cm.FrameBytes
}

// argRegs returns m's ABI argument registers, in c's scratch.
func (c *CPU) argRegs(m *bytecode.Method) []uint8 {
	regs, _ := isa.ArgRegs(c.regs[:0], jit.ArgFloats(c.floats[:0], m))
	return regs
}

// Run executes up to quantum instructions of a, returning the suspending
// trap (TrapNone when the quantum expires).
func (c *CPU) Run(t *vm.Thread, a *Activation, quantum int) rt.Trap {
	if c.Cancel != nil && c.Cancel() != nil {
		return rt.Trap{Kind: rt.TrapYield}
	}
	v := c.VM
	code := a.C.Code
	for n := 0; n < quantum; n++ {
		if a.PC < 0 || a.PC >= len(code) {
			vm.Throwf("InternalError", "%s: native PC %d out of range", a.C.M.FullName(), a.PC)
		}
		in := code[a.PC]
		if a.C.Elided != nil {
			if ec, ok := a.C.Elided[a.PC]; ok {
				c.validateElided(a, ec)
			}
		}
		pc := a.C.AddrOf(a.PC)
		c.Executed++
		next := a.PC + 1
		R := &a.Regs
		R[isa.RZero] = 0

		switch in.Op {
		case isa.OpNop:
			c.emitALU(pc, in)
		case isa.OpLui:
			R[in.Rd] = in.Imm
			c.emitALU(pc, in)
		case isa.OpAdd:
			R[in.Rd] = R[in.Rs1] + R[in.Rs2]
			c.emitALU(pc, in)
		case isa.OpSub:
			R[in.Rd] = R[in.Rs1] - R[in.Rs2]
			c.emitALU(pc, in)
		case isa.OpMul:
			R[in.Rd] = R[in.Rs1] * R[in.Rs2]
			c.emitALU(pc, in)
		case isa.OpDiv:
			if R[in.Rs2] == 0 {
				vm.Throwf("ArithmeticError", "divide by zero")
			}
			R[in.Rd] = R[in.Rs1] / R[in.Rs2]
			c.emitALU(pc, in)
		case isa.OpRem:
			if R[in.Rs2] == 0 {
				vm.Throwf("ArithmeticError", "remainder by zero")
			}
			R[in.Rd] = R[in.Rs1] % R[in.Rs2]
			c.emitALU(pc, in)
		case isa.OpAnd:
			R[in.Rd] = R[in.Rs1] & R[in.Rs2]
			c.emitALU(pc, in)
		case isa.OpOr:
			R[in.Rd] = R[in.Rs1] | R[in.Rs2]
			c.emitALU(pc, in)
		case isa.OpXor:
			R[in.Rd] = R[in.Rs1] ^ R[in.Rs2]
			c.emitALU(pc, in)
		case isa.OpShl:
			R[in.Rd] = R[in.Rs1] << (uint64(R[in.Rs2]) & 63)
			c.emitALU(pc, in)
		case isa.OpShr:
			R[in.Rd] = R[in.Rs1] >> (uint64(R[in.Rs2]) & 63)
			c.emitALU(pc, in)
		case isa.OpShru:
			R[in.Rd] = int64(uint64(R[in.Rs1]) >> (uint64(R[in.Rs2]) & 63))
			c.emitALU(pc, in)
		case isa.OpSlt:
			R[in.Rd] = b2i(R[in.Rs1] < R[in.Rs2])
			c.emitALU(pc, in)
		case isa.OpAddi:
			R[in.Rd] = R[in.Rs1] + in.Imm
			c.emitALU(pc, in)
		case isa.OpMuli:
			R[in.Rd] = R[in.Rs1] * in.Imm
			c.emitALU(pc, in)
		case isa.OpAndi:
			R[in.Rd] = R[in.Rs1] & in.Imm
			c.emitALU(pc, in)
		case isa.OpOri:
			R[in.Rd] = R[in.Rs1] | in.Imm
			c.emitALU(pc, in)
		case isa.OpXori:
			R[in.Rd] = R[in.Rs1] ^ in.Imm
			c.emitALU(pc, in)
		case isa.OpShli:
			R[in.Rd] = R[in.Rs1] << (uint64(in.Imm) & 63)
			c.emitALU(pc, in)
		case isa.OpShri:
			R[in.Rd] = R[in.Rs1] >> (uint64(in.Imm) & 63)
			c.emitALU(pc, in)
		case isa.OpSlti:
			R[in.Rd] = b2i(R[in.Rs1] < in.Imm)
			c.emitALU(pc, in)

		case isa.OpFAdd:
			R[in.Rd] = vm.F2Bits(vm.Bits2F(R[in.Rs1]) + vm.Bits2F(R[in.Rs2]))
			c.emitFPU(pc, in)
		case isa.OpFSub:
			R[in.Rd] = vm.F2Bits(vm.Bits2F(R[in.Rs1]) - vm.Bits2F(R[in.Rs2]))
			c.emitFPU(pc, in)
		case isa.OpFMul:
			R[in.Rd] = vm.F2Bits(vm.Bits2F(R[in.Rs1]) * vm.Bits2F(R[in.Rs2]))
			c.emitFPU(pc, in)
		case isa.OpFDiv:
			R[in.Rd] = vm.F2Bits(vm.Bits2F(R[in.Rs1]) / vm.Bits2F(R[in.Rs2]))
			c.emitFPU(pc, in)
		case isa.OpFNeg:
			R[in.Rd] = vm.F2Bits(-vm.Bits2F(R[in.Rs1]))
			c.emitFPU(pc, in)
		case isa.OpFMov:
			R[in.Rd] = R[in.Rs1]
			c.emitFPU(pc, in)
		case isa.OpFCmp:
			x, y := vm.Bits2F(R[in.Rs1]), vm.Bits2F(R[in.Rs2])
			var r int64
			switch {
			case x < y:
				r = -1
			case x > y:
				r = 1
			}
			R[in.Rd] = r
			c.emitFPU(pc, in)
		case isa.OpI2F:
			R[in.Rd] = vm.F2Bits(float64(R[in.Rs1]))
			c.emitFPU(pc, in)
		case isa.OpF2I:
			R[in.Rd] = int64(vm.Bits2F(R[in.Rs1]))
			c.emitFPU(pc, in)

		case isa.OpLd, isa.OpFLd:
			ea := c.effAddr(R[in.Rs1], in.Imm)
			R[in.Rd] = v.Mem.Load(ea)
			c.emitMem(pc, in, ea, false)
		case isa.OpLdb:
			ea := c.effAddr(R[in.Rs1], in.Imm)
			R[in.Rd] = int64(v.Mem.LoadByte(ea))
			c.emitMem(pc, in, ea, false)
		case isa.OpSt, isa.OpFSt:
			ea := c.effAddr(R[in.Rs1], in.Imm)
			v.Mem.Store(ea, R[in.Rs2])
			c.emitMem(pc, in, ea, true)
		case isa.OpStb:
			ea := c.effAddr(R[in.Rs1], in.Imm)
			v.Mem.StoreByte(ea, byte(R[in.Rs2]))
			c.emitMem(pc, in, ea, true)

		case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge, isa.OpBle, isa.OpBgt:
			taken := evalBranch(in.Op, R[in.Rs1], R[in.Rs2])
			if in.Target == vm.TrapPC {
				v.ChecksRun++
			}
			c.put(trace.Inst{PC: pc, Class: trace.Branch, Target: in.Target,
				Taken: taken, Phase: trace.PhaseExec, Src1: in.Rs1, Src2: in.Rs2,
				Dst: trace.RegNone})
			if taken {
				if in.Target == vm.TrapPC {
					// The bounds-check convention keeps the index in Rs1 and
					// the loaded length in RTmp0, so the exception text is
					// identical to the interpreter's vm.CheckBounds.
					vm.Throwf("ArrayIndexOutOfBounds", "index %d length %d", R[in.Rs1], R[isa.RTmp0])
				}
				next = c.codeIndex(a, in.Target)
			}

		case isa.OpJ:
			c.emitCtl(pc, trace.Jump, in.Target)
			next = c.codeIndex(a, in.Target)

		case isa.OpJal:
			R[isa.RLR] = int64(pc + isa.WordSize)
			c.emitCtl(pc, trace.Call, in.Target)
			a.PC = next
			return c.callTrap(in.Target, false)

		case isa.OpJalr:
			target := uint64(R[in.Rs1])
			R[isa.RLR] = int64(pc + isa.WordSize)
			c.put(trace.Inst{PC: pc, Class: trace.IndirectCall, Target: target,
				Taken: true, Phase: trace.PhaseExec, Src1: in.Rs1, Src2: trace.RegNone,
				Dst: isa.RLR})
			a.PC = next
			return c.callTrap(target, true)

		case isa.OpJr:
			target := uint64(R[in.Rs1])
			c.put(trace.Inst{PC: pc, Class: trace.IndirectJump, Target: target,
				Taken: true, Phase: trace.PhaseExec, Src1: in.Rs1, Src2: trace.RegNone,
				Dst: trace.RegNone})
			next = c.codeIndex(a, target)

		case isa.OpRet:
			c.emitCtl(pc, trace.Ret, a.RetAddr)
			a.PC = next
			tr := rt.Trap{Kind: rt.TrapReturn}
			switch a.C.M.Sig.Ret {
			case bytecode.TVoid:
			case bytecode.TFloat:
				tr.Val, tr.HasVal = R[isa.FReg0], true
			default:
				tr.Val, tr.HasVal = R[isa.RRet], true
			}
			return tr

		case isa.OpCallRT:
			tr, resume := c.service(t, a, pc, in)
			if !resume {
				return tr
			}

		case isa.OpHalt:
			a.PC = next
			return rt.Trap{Kind: rt.TrapReturn}

		default:
			vm.Throwf("InternalError", "native: bad opcode %v", in.Op)
		}
		a.PC = next
	}
	return rt.Trap{Kind: rt.TrapNone}
}

// effAddr computes and sanity-checks an effective address.
func (c *CPU) effAddr(base, imm int64) uint64 {
	ea := uint64(base + imm)
	if ea < 0x1000 {
		// Same exception text as the interpreter's vm.CheckNull: the
		// low-page trap is the native code's implicit null check.
		vm.Throwf("NullPointer", "null dereference")
	}
	return ea
}

// validateElided accounts an elided runtime check reached in native
// code and — when the -checkelide oracle is attached — re-validates it
// from the registers still live at the anchor instruction. Peek avoids
// the memory watch so the re-check cannot perturb race detection.
func (c *CPU) validateElided(a *Activation, ec jit.ElidedCheck) {
	v := c.VM
	v.ChecksElided++
	if v.CheckWatch == nil {
		return
	}
	ok := true
	switch ec.Kind {
	case vm.BoundsCheck:
		arr := uint64(a.Regs[ec.Arr])
		idx := a.Regs[ec.Idx]
		ok = arr != 0 && idx >= 0 && idx < v.Mem.Peek(arr+16)
	case vm.NullCheck:
		ok = a.Regs[ec.Arr] != 0
	}
	v.CheckWatch.OnElidedCheck(a.C.M, ec.PC, ec.Kind, ok)
}

// codeIndex converts an intra-method target address to a code index.
func (c *CPU) codeIndex(a *Activation, target uint64) int {
	if target < a.C.Base {
		vm.Throwf("InternalError", "%s: jump outside method to 0x%x", a.C.M.FullName(), target)
	}
	idx := int((target - a.C.Base) / isa.WordSize)
	if idx < 0 || idx > len(a.C.Code) {
		vm.Throwf("InternalError", "%s: jump outside method to 0x%x", a.C.M.FullName(), target)
	}
	return idx
}

// callTrap builds the TrapCall for a control transfer into the stub
// region, decoding arguments from the ABI registers.
func (c *CPU) callTrap(target uint64, virtual bool) rt.Trap {
	id := vm.MethodIDForStub(target)
	if id < 0 || id >= len(c.VM.MethodByID) {
		vm.Throwf("InternalError", "call to non-stub address 0x%x", target)
	}
	m := c.VM.MethodByID[id]
	// Arguments were marshalled by the caller per ArgRegs; the engine
	// needs them as a flat slice.
	return rt.Trap{Kind: rt.TrapCall, Target: m, Virtual: virtual}
}

// ReadArgs extracts the ABI-register arguments for m from a caller's
// activation (used by the trampoline right after a call trap). The
// result is c's scratch: it holds until the next ReadArgs, so a caller
// that keeps the arguments past the call must copy them.
func (c *CPU) ReadArgs(a *Activation, m *bytecode.Method) []int64 {
	regs := c.argRegs(m)
	args := c.args[:len(regs)]
	for i, r := range regs {
		args[i] = a.Regs[r]
	}
	return args
}

// service executes a runtime call. resume=false means the CPU must
// suspend with the returned trap.
func (c *CPU) service(t *vm.Thread, a *Activation, pc uint64, in isa.Inst) (rt.Trap, bool) {
	v := c.VM
	R := &a.Regs
	c.emitCtl(pc, trace.Call, serviceTarget(in.Imm))
	switch in.Imm {
	case isa.SvcNew:
		cid := int(R[isa.RArg0])
		if cid < 0 || cid >= len(v.ClassList) {
			vm.Throwf("InternalError", "SvcNew: bad class id %d", cid)
		}
		R[isa.RRet] = int64(v.AllocObject(v.ClassList[cid]))
	case isa.SvcNewArray:
		R[isa.RRet] = int64(v.AllocArray(int(R[isa.RArg0]), R[isa.RArg0+1]))
	case isa.SvcMonEnter:
		obj := uint64(R[isa.RArg0])
		v.CheckNull(obj)
		if !v.LockObject(t.ID, obj) {
			// Re-execute the callrt on wake.
			return rt.Trap{Kind: rt.TrapBlock, Obj: obj}, false
		}
	case isa.SvcMonExit:
		obj := uint64(R[isa.RArg0])
		v.UnlockObject(t.ID, obj)
		a.PC++
		return rt.Trap{Kind: rt.TrapYield, Obj: obj}, false
	case isa.SvcPrintStr:
		v.PrintString(uint64(R[isa.RArg0]))
	case isa.SvcPrintInt:
		v.PrintInt(R[isa.RArg0])
	case isa.SvcPrintFloat:
		v.PrintFloat(vm.Bits2F(R[isa.FReg0]))
	case isa.SvcPrintChar:
		v.PrintChar(R[isa.RArg0])
	case isa.SvcSpawn:
		a.PC++
		return rt.Trap{Kind: rt.TrapSpawn, Args: []int64{R[isa.RArg0]}}, false
	case isa.SvcJoin:
		a.PC++
		return rt.Trap{Kind: rt.TrapJoin, Args: []int64{R[isa.RArg0]}}, false
	case isa.SvcYield:
		a.PC++
		return rt.Trap{Kind: rt.TrapYield}, false
	default:
		vm.Throwf("InternalError", "unknown runtime service %d", in.Imm)
	}
	return rt.Trap{}, true
}

// serviceTarget maps a service id to its routine's address for the trace.
func serviceTarget(svc int64) uint64 {
	return mem.RuntimeBase + 0x100 + uint64(svc)*0x40
}

// SetResult delivers a call/spawn result into the activation's return
// register(s) per the callee's type.
func SetResult(a *Activation, ret bytecode.Type, val int64) {
	if ret == bytecode.TFloat {
		a.Regs[isa.FReg0] = val
	} else {
		a.Regs[isa.RRet] = val
	}
}

// --- trace emission helpers -------------------------------------------

// put is Emitter.Emit flattened into this package: the generated-code
// loop emits one Inst per simulated instruction through these helpers,
// and keeping the batched append inline (no intermediate call) matters
// at that rate.
func (c *CPU) put(in trace.Inst) {
	em := c.EM
	em.Count++
	em.Batch.Add(in)
}

func (c *CPU) emitALU(pc uint64, in isa.Inst) {
	c.put(trace.Inst{PC: pc, Class: trace.ALU, Phase: trace.PhaseExec,
		Src1: srcOrNone(in.Rs1), Src2: srcOrNone(in.Rs2), Dst: dstOrNone(in.Rd)})
}

func (c *CPU) emitFPU(pc uint64, in isa.Inst) {
	c.put(trace.Inst{PC: pc, Class: trace.FPU, Phase: trace.PhaseExec,
		Src1: srcOrNone(in.Rs1), Src2: srcOrNone(in.Rs2), Dst: dstOrNone(in.Rd)})
}

func (c *CPU) emitMem(pc uint64, in isa.Inst, ea uint64, write bool) {
	cl := trace.Load
	dst := dstOrNone(in.Rd)
	if write {
		cl = trace.Store
		dst = trace.RegNone
	}
	c.put(trace.Inst{PC: pc, Class: cl, Addr: ea, Phase: trace.PhaseExec,
		Src1: srcOrNone(in.Rs1), Src2: srcOrNone(in.Rs2), Dst: dst})
}

func (c *CPU) emitCtl(pc uint64, cl trace.Class, target uint64) {
	c.put(trace.Inst{PC: pc, Class: cl, Target: target, Taken: true,
		Phase: trace.PhaseExec, Src1: trace.RegNone, Src2: trace.RegNone,
		Dst: trace.RegNone})
}

func srcOrNone(r uint8) uint8 {
	if r == isa.RZero {
		return trace.RegNone
	}
	return r
}

func dstOrNone(r uint8) uint8 {
	if r == isa.RZero {
		return trace.RegNone
	}
	return r
}

func evalBranch(op isa.Op, a, b int64) bool {
	switch op {
	case isa.OpBeq:
		return a == b
	case isa.OpBne:
		return a != b
	case isa.OpBlt:
		return a < b
	case isa.OpBge:
		return a >= b
	case isa.OpBle:
		return a <= b
	case isa.OpBgt:
		return a > b
	}
	panic(fmt.Sprintf("evalBranch: %v", op))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
