// Package bytecode defines the stack-machine virtual ISA executed by the
// runtime — the analogue of the JVM bytecode of the paper — together with
// the class, method and constant-pool model shared by the interpreter,
// the JIT compiler and the class loader.
//
// The ISA is a faithful subset of the JVM's shape: a typed operand stack,
// numbered locals, a constant pool per class, virtual/static/special
// invocation, object and array accessors, monitors, and conditional
// branches. Integer ('I') values are 64-bit, floats ('F') are float64,
// references ('A') are heap addresses. Each opcode has an encoded size in
// bytes (1-3, averaging ~1.8 like real bytecode) so the interpreter's
// bytecode-as-data reads touch realistic addresses.
package bytecode

import "fmt"

// Op is a bytecode opcode.
type Op uint8

const (
	Nop Op = iota

	// Constants. IConst pushes A (int64 from the instruction); FConst
	// pushes pool float A; SConst pushes a reference to interned string
	// A; AConstNull pushes null.
	IConst
	FConst
	SConst
	AConstNull

	// Locals. A is the local slot.
	ILoad
	FLoad
	ALoad
	IStore
	FStore
	AStore
	// IInc adds B to local slot A.
	IInc

	// Operand stack manipulation.
	Pop
	Dup
	Swap

	// Integer arithmetic (operands popped, result pushed).
	IAdd
	ISub
	IMul
	IDiv
	IRem
	INeg
	IAnd
	IOr
	IXor
	IShl
	IShr
	IUshr

	// Float arithmetic.
	FAdd
	FSub
	FMul
	FDiv
	FNeg
	// FCmp pushes -1, 0 or 1.
	FCmp

	// Conversions.
	I2F
	F2I

	// Arrays. NewArray pops length, pushes ref; A is the element kind
	// (KindInt, KindFloat, KindRef, KindChar).
	NewArray
	ArrayLength
	IALoad
	IAStore
	FALoad
	FAStore
	AALoad
	AAStore
	CALoad
	CAStore

	// Control flow. A is the branch target (instruction index within the
	// method after assembly).
	Goto
	IfEq // pop v; branch if v == 0
	IfNe
	IfLt
	IfGe
	IfGt
	IfLe
	IfICmpEq // pop v2, v1; branch if v1 == v2
	IfICmpNe
	IfICmpLt
	IfICmpGe
	IfICmpGt
	IfICmpLe
	IfACmpEq
	IfACmpNe
	IfNull
	IfNonNull

	// Objects. A indexes the class pool's class/field/method reference
	// tables.
	New
	GetField
	PutField
	GetStatic
	PutStatic

	// Calls. A indexes the pool method-reference table.
	InvokeVirtual
	InvokeStatic
	InvokeSpecial

	// Returns.
	Return
	IReturn
	FReturn
	AReturn

	// Monitors (pop object reference).
	MonitorEnter
	MonitorExit

	// NumOps is the opcode count. The real interpreter's dispatch switch
	// has ~220 cases; ours has NumOps, with handler code sized to match
	// the footprint characteristics.
	NumOps
)

// Array element kinds for NewArray.
const (
	KindInt = iota
	KindFloat
	KindRef
	KindChar
)

var opNames = [NumOps]string{
	Nop: "nop", IConst: "iconst", FConst: "fconst", SConst: "sconst",
	AConstNull: "aconst_null",
	ILoad:      "iload", FLoad: "fload", ALoad: "aload",
	IStore: "istore", FStore: "fstore", AStore: "astore", IInc: "iinc",
	Pop: "pop", Dup: "dup", Swap: "swap",
	IAdd: "iadd", ISub: "isub", IMul: "imul", IDiv: "idiv", IRem: "irem",
	INeg: "ineg", IAnd: "iand", IOr: "ior", IXor: "ixor",
	IShl: "ishl", IShr: "ishr", IUshr: "iushr",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FNeg: "fneg",
	FCmp: "fcmp", I2F: "i2f", F2I: "f2i",
	NewArray: "newarray", ArrayLength: "arraylength",
	IALoad: "iaload", IAStore: "iastore", FALoad: "faload", FAStore: "fastore",
	AALoad: "aaload", AAStore: "aastore", CALoad: "caload", CAStore: "castore",
	Goto: "goto", IfEq: "ifeq", IfNe: "ifne", IfLt: "iflt", IfGe: "ifge",
	IfGt: "ifgt", IfLe: "ifle",
	IfICmpEq: "if_icmpeq", IfICmpNe: "if_icmpne", IfICmpLt: "if_icmplt",
	IfICmpGe: "if_icmpge", IfICmpGt: "if_icmpgt", IfICmpLe: "if_icmple",
	IfACmpEq: "if_acmpeq", IfACmpNe: "if_acmpne",
	IfNull: "ifnull", IfNonNull: "ifnonnull",
	New: "new", GetField: "getfield", PutField: "putfield",
	GetStatic: "getstatic", PutStatic: "putstatic",
	InvokeVirtual: "invokevirtual", InvokeStatic: "invokestatic",
	InvokeSpecial: "invokespecial",
	Return:        "return", IReturn: "ireturn", FReturn: "freturn", AReturn: "areturn",
	MonitorEnter: "monitorenter", MonitorExit: "monitorexit",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Size returns the encoded size of the opcode in bytes: one byte for the
// opcode plus its operand bytes, mirroring JVM encoding density (the
// literature's ~1.8-byte average bytecode).
func (o Op) Size() uint64 {
	switch o {
	case IConst, FConst, SConst, ILoad, FLoad, ALoad, IStore, FStore,
		AStore, NewArray:
		return 2
	case IInc, Goto, IfEq, IfNe, IfLt, IfGe, IfGt, IfLe,
		IfICmpEq, IfICmpNe, IfICmpLt, IfICmpGe, IfICmpGt, IfICmpLe,
		IfACmpEq, IfACmpNe, IfNull, IfNonNull,
		New, GetField, PutField, GetStatic, PutStatic,
		InvokeVirtual, InvokeStatic, InvokeSpecial:
		return 3
	default:
		return 1
	}
}

// opPops is the operand-arity table: how many stack operands each
// fixed-arity opcode consumes. Invokes are absent — they consume their
// callee's arity (Method.NumArgs), which the opcode alone does not name.
var opPops = [NumOps]uint8{
	IStore: 1, FStore: 1, AStore: 1, Pop: 1, Dup: 1, Swap: 2,
	IAdd: 2, ISub: 2, IMul: 2, IDiv: 2, IRem: 2, INeg: 1,
	IAnd: 2, IOr: 2, IXor: 2, IShl: 2, IShr: 2, IUshr: 2,
	FAdd: 2, FSub: 2, FMul: 2, FDiv: 2, FNeg: 1, FCmp: 2, I2F: 1, F2I: 1,
	NewArray: 1, ArrayLength: 1,
	IALoad: 2, FALoad: 2, AALoad: 2, CALoad: 2,
	IAStore: 3, FAStore: 3, AAStore: 3, CAStore: 3,
	IfEq: 1, IfNe: 1, IfLt: 1, IfGe: 1, IfGt: 1, IfLe: 1,
	IfICmpEq: 2, IfICmpNe: 2, IfICmpLt: 2, IfICmpGe: 2, IfICmpGt: 2, IfICmpLe: 2,
	IfACmpEq: 2, IfACmpNe: 2, IfNull: 1, IfNonNull: 1,
	GetField: 1, PutField: 2, PutStatic: 1,
	IReturn: 1, FReturn: 1, AReturn: 1, MonitorEnter: 1, MonitorExit: 1,
}

// Pops returns how many operands a fixed-arity opcode consumes (Dup and
// Swap count the operands they need), 0 for invokes; an abstract
// interpreter checks the stack depth against it once per instruction.
func (o Op) Pops() int {
	if o >= NumOps {
		return 0
	}
	return int(opPops[o])
}

// IsBranch reports whether the opcode is a conditional or unconditional
// intra-method branch (its A operand is an instruction index).
func (o Op) IsBranch() bool { return o >= Goto && o <= IfNonNull }

// IsInvoke reports whether the opcode calls a method.
func (o Op) IsInvoke() bool {
	return o == InvokeVirtual || o == InvokeStatic || o == InvokeSpecial
}

// IsTerminal reports whether control never falls through to the next
// instruction: returns and unconditional branches.
func (o Op) IsTerminal() bool {
	switch o {
	case Goto, Return, IReturn, FReturn, AReturn:
		return true
	}
	return false
}

// Instr is one decoded bytecode instruction. A and B are operands whose
// meaning depends on the opcode (constant value, local slot, pool index,
// branch target, increment).
type Instr struct {
	Op Op
	A  int32
	B  int32
}

// String renders the instruction.
func (i Instr) String() string {
	switch {
	case i.Op == IInc:
		return fmt.Sprintf("%s %d %d", i.Op, i.A, i.B)
	case i.Op.Size() > 1:
		return fmt.Sprintf("%s %d", i.Op, i.A)
	default:
		return i.Op.String()
	}
}
