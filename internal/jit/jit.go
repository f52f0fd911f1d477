// Package jit implements the baseline just-in-time compiler: a one-pass
// (plus branch fixup) translator from bytecode to the native ISA, in the
// style of the Kaffe JIT the paper instrumented.
//
// Code generation maps the operand stack onto registers — the
// optimization the paper credits for the JIT mode's lower memory-access
// frequency — keeps locals in the frame, performs class-hierarchy
// devirtualization of monomorphic virtual calls (the paper's "inlining of
// virtual function calls" effect on indirect-branch frequency), and
// installs the generated instructions into the simulated code cache.
//
// Translation itself is traced: the translator's own reads of the
// bytecode stream, its code-generation work, and — crucially — the data
// *write* per installed instruction whose compulsory D-cache misses the
// paper identifies as the dominant cost of the translate phase
// (Figures 3 and 5). Code generation itself is pure; one emitter,
// traceTranslation, produces that stream from the method and the
// translation's layout.
//
// A method is translated once per program: the first translation under
// a key (method, tier, options, what Facts answers) is recorded on the
// linked vm.Program, and every later one, in any engine installing the
// program, installs the recorded code at its own base and emits the
// same stream a fresh translation would (record.go). The simulation is
// charged the same; the host skips type flow and code generation.
package jit

import (
	"fmt"

	"jrs/internal/analysis"
	"jrs/internal/bytecode"
	"jrs/internal/emit"
	"jrs/internal/isa"
	"jrs/internal/jit/codecache"
	"jrs/internal/mem"
	"jrs/internal/trace"
	"jrs/internal/vm"
)

// Options tunes the compiler.
type Options struct {
	// Devirtualize enables class-hierarchy-analysis devirtualization of
	// virtual call sites with exactly one reachable target (on by
	// default; the ablate-inline experiment turns it off).
	Devirtualize bool
	// MaxStackRegs bounds the register-mapped operand stack depth;
	// methods exceeding it are rejected (the engine then interprets
	// them, like real JITs bailing out on hairy methods).
	MaxStackRegs int
	// Facts, when set, supplies whole-program devirtualization proofs
	// (see internal/analysis/ipa): a site-specific unique target beats
	// the local CHA check below because it folds in instantiation
	// (rapid type analysis) and exact receiver types. Kept as a narrow
	// interface so the compiler does not depend on the analysis package.
	Facts Facts
	// BaselineCodegen selects era-accurate naive one-bytecode-at-a-time
	// code generation: per-bytecode bookkeeping glue and operand-stack
	// spills at basic-block boundaries, on top of the register-mapped
	// stack ("many stack operations are optimized to register
	// operations", §4.1). Off, the generator emits tight register code
	// only (a modern baseline JIT).
	BaselineCodegen bool
	// ElideBounds lets the generator skip the bounds-check sequence at
	// array accesses Facts proves safe (length load plus two trap
	// branches). The elided site is recorded in Compiled.Elided so the
	// CPU can re-validate it under the -checkelide oracle.
	ElideBounds bool
}

// Facts answers whole-program-analysis queries for compiled sites.
type Facts interface {
	// DevirtTarget returns the proven unique runtime target of the
	// invokevirtual at instruction index pc of m, or nil when the site
	// stays polymorphic.
	DevirtTarget(m *bytecode.Method, pc int) *bytecode.Method
	// BoundsProven reports that the array access at instruction index pc
	// of m has a provably in-range index on a non-null array (see
	// internal/analysis/vrange).
	BoundsProven(m *bytecode.Method, pc int) bool
	// Fingerprint names what the facts answer: a comparable value that
	// two Facts over one program share only when they answer every
	// query above alike. It keys the program's translation records
	// (see record.go), so it must tell apart facts that differ only in
	// which proofs they release.
	Fingerprint() any
}

// ElidedCheck describes one runtime check the generator skipped, keyed
// in Compiled.Elided by the native code index of the anchor instruction
// (the first instruction of the unchecked access sequence). Arr and Idx
// name the registers still holding the array reference and index there,
// so the oracle can re-validate from live state.
type ElidedCheck struct {
	// PC is the bytecode instruction index of the elided site.
	PC   int
	Kind vm.CheckKind
	Arr  uint8
	Idx  uint8
}

// DefaultOptions returns the standard (paper-era) configuration.
func DefaultOptions() Options {
	return Options{Devirtualize: true, MaxStackRegs: 16, BaselineCodegen: true}
}

// Compiled is an installed translation.
type Compiled struct {
	M *bytecode.Method
	// Base is the code-cache address of the first instruction.
	Base uint64
	Code []isa.Inst
	// FrameBytes is the native frame size (locals + linkage).
	FrameBytes uint64
	// Tier is 1 for baseline code and 2 for an optimizing recompilation
	// (the tiered-compilation extension of the paper's §7 proposal).
	Tier int
	// Elided maps native code index -> the check skipped there (nil when
	// no checks were elided in this method).
	Elided map[int]ElidedCheck
}

// AddrOf returns the address of instruction index i.
func (c *Compiled) AddrOf(i int) uint64 { return c.Base + uint64(i)*isa.WordSize }

// Compiler owns the code cache.
type Compiler struct {
	VM  *vm.VM
	EM  *emit.Emitter
	Opt Options

	// Cache, when non-nil, shares translations with other engines (and,
	// disk-backed, with other runs) through the two-level content-
	// addressed store: Compile and Optimize look up the method's
	// translation key before running the generator, and install the
	// shared position-independent entry on a hit (see cache.go).
	Cache *codecache.Cache
	// CacheHits / CacheMisses count this engine's shared-cache outcomes;
	// Keys records the translation key computed per method id (tests and
	// tools; nil until the first cached compile).
	CacheHits   int
	CacheMisses int
	Keys        map[int]string

	codeNext uint64
	// ByID maps method id to its translation.
	ByID map[int]*Compiled
	// Failed records methods the compiler rejected.
	Failed map[int]error
	// CodeBytes is the total installed code size; Translations counts
	// successful compiles (cache hits excluded — nothing was translated);
	// Reoptimizations counts tier-2 recompiles.
	CodeBytes       uint64
	Translations    int
	Reoptimizations int
	// Cancel, when non-nil, is polled at translation entry (translation
	// is on the instruction-budget path: its emitted instructions charge
	// the method's T_i); a non-nil return aborts the compile without
	// recording the method as failed, so a later clean run can still
	// translate it.
	Cancel func() error
}

// New builds a compiler for v, emitting translation-phase trace to the
// VM's sink.
func New(v *vm.VM, opt Options) *Compiler {
	return &Compiler{
		VM:       v,
		EM:       emit.New(v.RT.Batch, trace.PhaseTranslate),
		Opt:      opt,
		codeNext: vm.CodeArea,
		ByID:     make(map[int]*Compiled),
		Failed:   make(map[int]error),
	}
}

// Lookup returns the translation of m, or nil.
func (c *Compiler) Lookup(m *bytecode.Method) *Compiled { return c.ByID[m.ID] }

// Compile translates m, installs it, and returns the translation. A
// method that was already compiled is returned as-is; a method the
// compiler cannot handle returns an error (cached, so repeated attempts
// are cheap).
func (c *Compiler) Compile(m *bytecode.Method) (*Compiled, error) {
	if cm := c.ByID[m.ID]; cm != nil {
		return cm, nil
	}
	if err := c.Failed[m.ID]; err != nil {
		return nil, err
	}
	if c.Cancel != nil {
		if err := c.Cancel(); err != nil {
			return nil, err
		}
	}
	cm, hit, err := c.compile(m, c.Opt, 1)
	if err != nil {
		c.Failed[m.ID] = err
		return nil, err
	}
	cm.Tier = 1
	c.ByID[m.ID] = cm
	c.CodeBytes += uint64(len(cm.Code)) * isa.WordSize
	if hit {
		c.CacheHits++
	} else {
		c.Translations++
		if c.Cache != nil {
			c.CacheMisses++
		}
	}
	return cm, nil
}

// Optimize recompiles an already-translated method at tier 2: the
// operand stack stays in registers with no per-bytecode glue — the
// profile-triggered reoptimization the paper's §7 sketches (a hot-site
// counter triggering the compiler). The new code is installed at a fresh
// code-cache address and replaces the method's translation; in-flight
// activations keep executing the old copy.
func (c *Compiler) Optimize(m *bytecode.Method) (*Compiled, error) {
	opt := c.Opt
	opt.BaselineCodegen = false
	cm, hit, err := c.compile(m, opt, 2)
	if err != nil {
		return nil, err
	}
	cm.Tier = 2
	c.ByID[m.ID] = cm
	c.CodeBytes += uint64(len(cm.Code)) * isa.WordSize
	c.Reoptimizations++
	if hit {
		c.CacheHits++
	} else if c.Cache != nil {
		c.CacheMisses++
	}
	return cm, nil
}

// Translator code-region PCs: a prologue routine, the analysis pass, one
// code-generation routine per opcode (reused across all translations of
// that opcode — the code reuse behind the translate phase's good I-cache
// locality), and a fixup routine.
const (
	tcProl    = mem.TranslatorBase
	tcAnalyze = mem.TranslatorBase + 0x200
	tcOps     = mem.TranslatorBase + 0x400
	tcOpSz    = 0x80
	tcFixup   = mem.TranslatorBase + 0x8000
)

// Translation cost model. A baseline JIT of the Kaffe era spends on the
// order of a thousand cycles per bytecode translated: multiple analysis
// passes (stack simulation / type inference), code selection with
// register assignment, and branch fixups. These constants size the
// translator's emitted work; the absolute numbers only need to be in the
// right regime for the Figure 1 translate/execute decomposition to show
// the paper's spectrum from translation-dominated (hello, db, javac) to
// execution-dominated (compress, jack) workloads.
const (
	// analysisPasses is the number of dataflow sweeps over the bytecode.
	analysisPasses = 4
	// analysisALUPerBC is the per-bytecode bookkeeping work per sweep.
	analysisALUPerBC = 30
	// codegenALUPerBC is instruction-selection work per bytecode.
	codegenALUPerBC = 48
	// emitALUPerInst is encoding work per emitted native instruction.
	emitALUPerInst = 8
	// methodOverheadALU covers frame layout, symbol resolution and
	// installation bookkeeping per method.
	methodOverheadALU = 500
)

// irWorkspace is the translator's reused intermediate-representation
// buffer; writing it produces the translate phase's data-side traffic in
// the VM segment (distinct from the install writes into the code cache).
func irWorkspace(i int) uint64 {
	return mem.VMBase + 0x300_0000 + uint64(i%1024)*16
}

func opRoutinePC(op bytecode.Op) uint64 { return tcOps + uint64(op)*tcOpSz }

// gen is the per-method code generator.
type gen struct {
	c   *Compiler
	m   *bytecode.Method
	cls *bytecode.Class
	opt Options

	sizing bool
	count  int
	code   []isa.Inst
	// start[i] is the native instruction index where bytecode i begins.
	start []int32
	// fixups record branches needing target resolution after pass 1.
	types [][]bytecode.Type
	base  uint64

	// stack models the operand stack register assignment during
	// generation (depth -> type comes from typeflow).
	depth int
	// elided collects check-elision records during the emit pass.
	elided map[int]ElidedCheck
}

// Stack register assignment: integer/reference slot d lives in
// RVar0+d, float slot d in FReg0+8+d.
func intReg(d int) uint8   { return uint8(isa.RVar0 + d) }
func floatReg(d int) uint8 { return uint8(isa.FReg0 + 8 + d) }

func (g *gen) regFor(d int, t bytecode.Type) uint8 {
	if d < 0 {
		d = 0
	}
	if t == bytecode.TFloat {
		return floatReg(d)
	}
	return intReg(d)
}

// slotOff is the frame offset of operand-stack slot d (stack homes live
// above the locals).
func (g *gen) slotOff(d int) int64 {
	if d < 0 {
		d = 0
	}
	return int64(g.m.MaxLocals+d) * 8
}

func (g *gen) run() (*Compiled, error) {
	types, err := analysis.TypeFlow(g.cls, g.m)
	if err != nil {
		return nil, err
	}
	g.types = types

	// Reject over-deep stacks and over-wide signatures.
	for _, s := range types {
		if len(s) > g.opt.MaxStackRegs {
			return nil, fmt.Errorf("%s: operand stack depth %d exceeds register file",
				g.m.FullName(), len(s))
		}
	}
	if _, ok := isa.ArgRegs(nil, ArgFloats(nil, g.m)); !ok {
		return nil, fmt.Errorf("%s: too many parameters for ABI", g.m.FullName())
	}

	// Pass 1: size.
	g.sizing = true
	if err := g.body(); err != nil {
		return nil, err
	}
	total := g.count

	// Pass 2: emit with resolved targets at the claimed install base.
	g.sizing = false
	g.base = g.c.claim(total)
	g.code = make([]isa.Inst, 0, total)
	if err := g.body(); err != nil {
		return nil, err
	}
	if len(g.code) != total {
		return nil, fmt.Errorf("%s: pass size mismatch %d != %d", g.m.FullName(), len(g.code), total)
	}

	maxDepth := 0
	for _, s := range types {
		if len(s) > maxDepth {
			maxDepth = len(s)
		}
	}
	return &Compiled{
		M:          g.m,
		Base:       g.base,
		Code:       g.code,
		FrameBytes: uint64(g.m.MaxLocals+maxDepth)*8 + 64,
		Elided:     g.elided,
	}, nil
}

// claim reserves the code-cache space of an n-instruction translation
// and returns its base; methods are padded apart to 64 bytes.
func (c *Compiler) claim(n int) uint64 {
	base := c.codeNext
	c.codeNext = (base + uint64(n)*isa.WordSize + 63) &^ 63
	return base
}

// ArgFloats appends to dst the per-argument is-float vector of m
// (receiver first for instance methods) and returns it: the ABI key the
// call-site generator here and the native CPU's trap decoder both pass
// to isa.ArgRegs.
func ArgFloats(dst []bool, m *bytecode.Method) []bool {
	if !m.IsStatic() {
		dst = append(dst, false)
	}
	for _, p := range m.Sig.Params {
		dst = append(dst, p == bytecode.TFloat)
	}
	return dst
}

// emit appends one native instruction (pass 2) or counts it (pass 1).
func (g *gen) emit(in isa.Inst) {
	if g.sizing {
		g.count++
		return
	}
	g.code = append(g.code, in)
}

// target resolves a bytecode index to a native address (pass 2 only).
func (g *gen) target(bcIdx int) uint64 {
	if g.sizing {
		return 0
	}
	return g.base + uint64(g.start[bcIdx])*isa.WordSize
}

func (g *gen) body() error {
	m := g.m
	if g.start == nil || g.sizing {
		g.start = make([]int32, len(m.Code))
	}
	regs, _ := isa.ArgRegs(nil, ArgFloats(nil, m))
	for i, r := range regs {
		op := isa.OpSt
		if r >= isa.FReg0 {
			op = isa.OpFSt
		}
		g.emit(isa.Inst{Op: op, Rs1: isa.RSP, Rs2: r, Imm: int64(i) * 8})
	}

	// Branch targets force the memory stack to be architecturally current,
	// so top-of-stack elision must not cross them.
	isTarget := make([]bool, len(m.Code))
	for _, ins := range m.Code {
		if ins.Op.IsBranch() {
			isTarget[ins.A] = true
		}
	}
	for i, ins := range m.Code {
		if g.sizing {
			g.start[i] = int32(g.count)
		} else {
			g.start[i] = int32(len(g.code)) // stable from pass 1; re-recorded harmlessly
		}
		before := g.types[i]
		if g.opt.BaselineCodegen {
			// Per-bytecode glue a naive one-bytecode-at-a-time code
			// generator emits: PC bookkeeping and address scratch work.
			g.emit(isa.Inst{Op: isa.OpAddi, Rd: isa.RTmp0 + 2, Rs1: isa.RSP,
				Imm: g.slotOff(len(before))})
		}
		if err := g.instr(i, ins); err != nil {
			return err
		}
		if g.opt.BaselineCodegen {
			// At basic-block boundaries the generator keeps the memory
			// image of the operand stack current (its per-block register
			// map dies there), spilling the live top slot.
			boundary := ins.Op.IsBranch() || ins.Op.IsInvoke() ||
				(i+1 < len(m.Code) && isTarget[i+1])
			depthAfter := 0
			if i+1 < len(m.Code) && g.types[i+1] != nil {
				depthAfter = len(g.types[i+1])
			}
			if boundary && depthAfter > 0 {
				d := depthAfter - 1
				t := g.stk(i+1, d)
				op := isa.OpSt
				if t == bytecode.TFloat {
					op = isa.OpFSt
				}
				g.emit(isa.Inst{Op: op, Rs1: isa.RSP, Rs2: g.regFor(d, t),
					Imm: g.slotOff(d)})
			}
		}
	}
	return nil
}

// traceTranslation emits the translator's own work for one translation
// of m installed at base: per-method overhead, the analysis sweeps
// reading the bytecode and writing the IR workspace, then per bytecode
// its code-selection routine followed by the encoding work and install
// write of each native instruction it produced, and last the
// branch-fixup pass re-reading and patching every branch site. start[i]
// is the native index where bytecode i begins and total the code
// length: the stream depends on nothing else, so a fresh translation and
// a replay of its record (record.go) emit it alike.
func (c *Compiler) traceTranslation(m *bytecode.Method, base uint64, start []int32, total int) {
	ts := c.EM.At(tcProl)
	ts.ALU(methodOverheadALU / 2)
	for p := 0; p < analysisPasses; p++ {
		as := c.EM.At(tcAnalyze)
		for i := range m.Code {
			as.Load(m.Addr+m.PCOffsets[i]).ALU(analysisALUPerBC/2).
				Load(irWorkspace(i)).ALU(analysisALUPerBC-analysisALUPerBC/2).
				Store(irWorkspace(i)).Store(irWorkspace(i)+8).
				Branch(i+1 < len(m.Code), tcAnalyze)
		}
		as.Ret(0)
	}
	ts = c.EM.At(tcProl + 0x100)
	ts.ALU(methodOverheadALU - methodOverheadALU/2)
	end := total
	if len(start) > 0 {
		end = int(start[0])
	}
	traceInstalls(ts, base, 0, end) // the argument stores
	for i, ins := range m.Code {
		// Code selection: re-read the IR, run the opcode's generation
		// routine.
		ts := c.EM.At(opRoutinePC(ins.Op))
		ts.Load(irWorkspace(i)).ALU(codegenALUPerBC / 2).
			Load(m.Addr + m.PCOffsets[i]).ALU(codegenALUPerBC - codegenALUPerBC/2)
		end := total
		if i+1 < len(start) {
			end = int(start[i+1])
		}
		traceInstalls(ts, base, int(start[i]), end)
	}
	// Branch-fixup pass: targets were already resolved because pass 1
	// fixed the layout, but the translator re-reads and patches every
	// branch site.
	fs := c.EM.At(tcFixup)
	for i, ins := range m.Code {
		if ins.Op.IsBranch() {
			addr := base + uint64(start[i])*isa.WordSize
			fs.Load(addr).ALU(1).Store(addr)
		}
	}
	fs.Ret(0)
}

// traceInstalls emits, for native instructions from to to-1, the
// encoding work (register selection, operand packing) and then the
// install write into the code cache.
func traceInstalls(ts *emit.Seq, base uint64, from, to int) {
	for idx := from; idx < to; idx++ {
		ts.ALU(emitALUPerInst).Store(base + uint64(idx)*isa.WordSize)
	}
}

// stk returns the type of stack slot d at bytecode i (depth from bottom).
func (g *gen) stk(i, d int) bytecode.Type {
	s := g.types[i]
	if d < 0 || d >= len(s) {
		return bytecode.TInt
	}
	return s[d]
}

func (g *gen) instr(i int, ins bytecode.Instr) error {
	m, cls := g.m, g.cls
	depth := len(g.types[i])
	e := g.emit
	// Shorthands for the slot registers around the current depth.
	top := depth - 1

	switch op := ins.Op; op {
	case bytecode.Nop:
		e(isa.Inst{Op: isa.OpNop})

	case bytecode.IConst:
		e(isa.Inst{Op: isa.OpLui, Rd: intReg(depth), Imm: int64(ins.A)})
	case bytecode.FConst:
		// Load the constant from the materialized class pool.
		e(isa.Inst{Op: isa.OpFLd, Rd: floatReg(depth), Rs1: isa.RZero,
			Imm: int64(vm.PoolFloatAddr(cls, ins.A))})
	case bytecode.SConst:
		e(isa.Inst{Op: isa.OpLd, Rd: intReg(depth), Rs1: isa.RZero,
			Imm: int64(vm.PoolStringAddr(cls, ins.A))})
	case bytecode.AConstNull:
		e(isa.Inst{Op: isa.OpLui, Rd: intReg(depth), Imm: 0})

	case bytecode.ILoad, bytecode.ALoad:
		e(isa.Inst{Op: isa.OpLd, Rd: intReg(depth), Rs1: isa.RSP, Imm: int64(ins.A) * 8})
	case bytecode.FLoad:
		e(isa.Inst{Op: isa.OpFLd, Rd: floatReg(depth), Rs1: isa.RSP, Imm: int64(ins.A) * 8})
	case bytecode.IStore, bytecode.AStore:
		e(isa.Inst{Op: isa.OpSt, Rs1: isa.RSP, Rs2: intReg(top), Imm: int64(ins.A) * 8})
	case bytecode.FStore:
		e(isa.Inst{Op: isa.OpFSt, Rs1: isa.RSP, Rs2: floatReg(top), Imm: int64(ins.A) * 8})
	case bytecode.IInc:
		e(isa.Inst{Op: isa.OpLd, Rd: isa.RTmp0, Rs1: isa.RSP, Imm: int64(ins.A) * 8})
		e(isa.Inst{Op: isa.OpAddi, Rd: isa.RTmp0, Rs1: isa.RTmp0, Imm: int64(ins.B)})
		e(isa.Inst{Op: isa.OpSt, Rs1: isa.RSP, Rs2: isa.RTmp0, Imm: int64(ins.A) * 8})

	case bytecode.Pop:
		// Value dies in its register: no code.
	case bytecode.Dup:
		t := g.stk(i, top)
		if t == bytecode.TFloat {
			e(isa.Inst{Op: isa.OpFMov, Rd: floatReg(depth), Rs1: floatReg(top)})
		} else {
			e(isa.Inst{Op: isa.OpAddi, Rd: intReg(depth), Rs1: intReg(top)})
		}
	case bytecode.Swap:
		a, b := intReg(top-1), intReg(top)
		e(isa.Inst{Op: isa.OpAddi, Rd: isa.RTmp0, Rs1: a})
		e(isa.Inst{Op: isa.OpAddi, Rd: a, Rs1: b})
		e(isa.Inst{Op: isa.OpAddi, Rd: b, Rs1: isa.RTmp0})

	case bytecode.IAdd, bytecode.ISub, bytecode.IMul, bytecode.IDiv,
		bytecode.IRem, bytecode.IAnd, bytecode.IOr, bytecode.IXor,
		bytecode.IShl, bytecode.IShr, bytecode.IUshr:
		e(isa.Inst{Op: intOpFor(op), Rd: intReg(top - 1), Rs1: intReg(top - 1), Rs2: intReg(top)})
	case bytecode.INeg:
		e(isa.Inst{Op: isa.OpSub, Rd: intReg(top), Rs1: isa.RZero, Rs2: intReg(top)})

	case bytecode.FAdd, bytecode.FSub, bytecode.FMul, bytecode.FDiv:
		e(isa.Inst{Op: floatOpFor(op), Rd: floatReg(top - 1), Rs1: floatReg(top - 1), Rs2: floatReg(top)})
	case bytecode.FNeg:
		e(isa.Inst{Op: isa.OpFNeg, Rd: floatReg(top), Rs1: floatReg(top)})
	case bytecode.FCmp:
		e(isa.Inst{Op: isa.OpFCmp, Rd: intReg(top - 1), Rs1: floatReg(top - 1), Rs2: floatReg(top)})
	case bytecode.I2F:
		e(isa.Inst{Op: isa.OpI2F, Rd: floatReg(top), Rs1: intReg(top)})
	case bytecode.F2I:
		e(isa.Inst{Op: isa.OpF2I, Rd: intReg(top), Rs1: floatReg(top)})

	case bytecode.NewArray:
		e(isa.Inst{Op: isa.OpLui, Rd: isa.RArg0, Imm: int64(ins.A)})
		e(isa.Inst{Op: isa.OpAddi, Rd: isa.RArg0 + 1, Rs1: intReg(top)})
		e(isa.Inst{Op: isa.OpCallRT, Imm: isa.SvcNewArray})
		e(isa.Inst{Op: isa.OpAddi, Rd: intReg(top), Rs1: isa.RRet})
	case bytecode.ArrayLength:
		e(isa.Inst{Op: isa.OpLd, Rd: intReg(top), Rs1: intReg(top), Imm: 16})

	case bytecode.IALoad, bytecode.FALoad, bytecode.AALoad, bytecode.CALoad:
		g.arrayLoad(i, op)
	case bytecode.IAStore, bytecode.FAStore, bytecode.AAStore, bytecode.CAStore:
		g.arrayStore(i, op)

	case bytecode.Goto:
		e(isa.Inst{Op: isa.OpJ, Target: g.target(int(ins.A))})
	case bytecode.IfEq, bytecode.IfNe, bytecode.IfLt, bytecode.IfGe,
		bytecode.IfGt, bytecode.IfLe, bytecode.IfNull, bytecode.IfNonNull:
		e(isa.Inst{Op: unaryBranchFor(op), Rs1: intReg(top), Rs2: isa.RZero,
			Target: g.target(int(ins.A))})
	case bytecode.IfICmpEq, bytecode.IfICmpNe, bytecode.IfICmpLt,
		bytecode.IfICmpGe, bytecode.IfICmpGt, bytecode.IfICmpLe,
		bytecode.IfACmpEq, bytecode.IfACmpNe:
		e(isa.Inst{Op: binBranchFor(op), Rs1: intReg(top - 1), Rs2: intReg(top),
			Target: g.target(int(ins.A))})

	case bytecode.New:
		cr := cls.Pool.Classes[ins.A].Resolved
		e(isa.Inst{Op: isa.OpLui, Rd: isa.RArg0, Imm: int64(cr.ID)})
		e(isa.Inst{Op: isa.OpCallRT, Imm: isa.SvcNew})
		e(isa.Inst{Op: isa.OpAddi, Rd: intReg(depth), Rs1: isa.RRet})

	case bytecode.GetField:
		fr := &cls.Pool.Fields[ins.A]
		off := int64(vm.ObjHeaderBytes + fr.Resolved.Slot*8)
		if fr.Resolved.Type == bytecode.TFloat {
			e(isa.Inst{Op: isa.OpFLd, Rd: floatReg(top), Rs1: intReg(top), Imm: off})
		} else {
			e(isa.Inst{Op: isa.OpLd, Rd: intReg(top), Rs1: intReg(top), Imm: off})
		}
	case bytecode.PutField:
		fr := &cls.Pool.Fields[ins.A]
		off := int64(vm.ObjHeaderBytes + fr.Resolved.Slot*8)
		if fr.Resolved.Type == bytecode.TFloat {
			e(isa.Inst{Op: isa.OpFSt, Rs1: intReg(top - 1), Rs2: floatReg(top), Imm: off})
		} else {
			e(isa.Inst{Op: isa.OpSt, Rs1: intReg(top - 1), Rs2: intReg(top), Imm: off})
		}
	case bytecode.GetStatic:
		fr := &cls.Pool.Fields[ins.A]
		addr := int64(fr.Owner.StaticBase + uint64(fr.Resolved.Slot)*8)
		if fr.Resolved.Type == bytecode.TFloat {
			e(isa.Inst{Op: isa.OpFLd, Rd: floatReg(depth), Rs1: isa.RZero, Imm: addr})
		} else {
			e(isa.Inst{Op: isa.OpLd, Rd: intReg(depth), Rs1: isa.RZero, Imm: addr})
		}
	case bytecode.PutStatic:
		fr := &cls.Pool.Fields[ins.A]
		addr := int64(fr.Owner.StaticBase + uint64(fr.Resolved.Slot)*8)
		if fr.Resolved.Type == bytecode.TFloat {
			e(isa.Inst{Op: isa.OpFSt, Rs1: isa.RZero, Rs2: floatReg(top), Imm: addr})
		} else {
			e(isa.Inst{Op: isa.OpSt, Rs1: isa.RZero, Rs2: intReg(top), Imm: addr})
		}

	case bytecode.InvokeVirtual, bytecode.InvokeStatic, bytecode.InvokeSpecial:
		return g.invoke(i, ins)

	case bytecode.Return:
		e(isa.Inst{Op: isa.OpRet})
	case bytecode.IReturn, bytecode.AReturn:
		e(isa.Inst{Op: isa.OpAddi, Rd: isa.RRet, Rs1: intReg(top)})
		e(isa.Inst{Op: isa.OpRet})
	case bytecode.FReturn:
		e(isa.Inst{Op: isa.OpFMov, Rd: isa.FReg0, Rs1: floatReg(top)})
		e(isa.Inst{Op: isa.OpRet})

	case bytecode.MonitorEnter:
		e(isa.Inst{Op: isa.OpAddi, Rd: isa.RArg0, Rs1: intReg(top)})
		e(isa.Inst{Op: isa.OpCallRT, Imm: isa.SvcMonEnter})
	case bytecode.MonitorExit:
		e(isa.Inst{Op: isa.OpAddi, Rd: isa.RArg0, Rs1: intReg(top)})
		e(isa.Inst{Op: isa.OpCallRT, Imm: isa.SvcMonExit})

	default:
		return fmt.Errorf("%s @%d: jit: unhandled opcode %v", m.FullName(), i, op)
	}
	return nil
}

// elideBounds decides whether the bounds check at bytecode i may be
// skipped. It is a pure function of (opt, m, i) so the sizing and emit
// passes agree on instruction counts.
func (g *gen) elideBounds(i int) bool {
	return g.opt.ElideBounds && g.opt.Facts != nil && g.opt.Facts.BoundsProven(g.m, i)
}

// noteElided records an elided check anchored at the next native
// instruction to be emitted (emit pass only).
func (g *gen) noteElided(ec ElidedCheck) {
	if g.sizing {
		return
	}
	if g.elided == nil {
		g.elided = make(map[int]ElidedCheck)
	}
	g.elided[len(g.code)] = ec
}

// arrayLoad generates the bounds-checked element load.
func (g *gen) arrayLoad(i int, op bytecode.Op) {
	depth := len(g.types[i])
	arr, idx := intReg(depth-2), intReg(depth-1)
	e := g.emit
	if g.elideBounds(i) {
		// Proven in-range on a non-null array: skip the length load and
		// both trap branches. The anchor (address-computation) instruction
		// below still has arr/idx live for oracle re-validation.
		g.noteElided(ElidedCheck{PC: i, Kind: vm.BoundsCheck, Arr: arr, Idx: idx})
	} else {
		// Bounds: idx < 0 or idx >= len traps.
		e(isa.Inst{Op: isa.OpLd, Rd: isa.RTmp0, Rs1: arr, Imm: 16})
		e(isa.Inst{Op: isa.OpBlt, Rs1: idx, Rs2: isa.RZero, Target: vm.TrapPC})
		e(isa.Inst{Op: isa.OpBge, Rs1: idx, Rs2: isa.RTmp0, Target: vm.TrapPC})
	}
	if op == bytecode.CALoad {
		e(isa.Inst{Op: isa.OpAdd, Rd: isa.RTmp0 + 1, Rs1: arr, Rs2: idx})
		e(isa.Inst{Op: isa.OpLdb, Rd: intReg(depth - 2), Rs1: isa.RTmp0 + 1, Imm: int64(vm.ArrHeaderBytes)})
		return
	}
	e(isa.Inst{Op: isa.OpShli, Rd: isa.RTmp0 + 1, Rs1: idx, Imm: 3})
	e(isa.Inst{Op: isa.OpAdd, Rd: isa.RTmp0 + 1, Rs1: arr, Rs2: isa.RTmp0 + 1})
	if op == bytecode.FALoad {
		e(isa.Inst{Op: isa.OpFLd, Rd: floatReg(depth - 2), Rs1: isa.RTmp0 + 1, Imm: int64(vm.ArrHeaderBytes)})
	} else {
		e(isa.Inst{Op: isa.OpLd, Rd: intReg(depth - 2), Rs1: isa.RTmp0 + 1, Imm: int64(vm.ArrHeaderBytes)})
	}
}

// arrayStore generates the bounds-checked element store.
func (g *gen) arrayStore(i int, op bytecode.Op) {
	depth := len(g.types[i])
	arr, idx := intReg(depth-3), intReg(depth-2)
	e := g.emit
	if g.elideBounds(i) {
		g.noteElided(ElidedCheck{PC: i, Kind: vm.BoundsCheck, Arr: arr, Idx: idx})
	} else {
		e(isa.Inst{Op: isa.OpLd, Rd: isa.RTmp0, Rs1: arr, Imm: 16})
		e(isa.Inst{Op: isa.OpBlt, Rs1: idx, Rs2: isa.RZero, Target: vm.TrapPC})
		e(isa.Inst{Op: isa.OpBge, Rs1: idx, Rs2: isa.RTmp0, Target: vm.TrapPC})
	}
	if op == bytecode.CAStore {
		e(isa.Inst{Op: isa.OpAdd, Rd: isa.RTmp0 + 1, Rs1: arr, Rs2: idx})
		e(isa.Inst{Op: isa.OpStb, Rs1: isa.RTmp0 + 1, Rs2: intReg(depth - 1), Imm: int64(vm.ArrHeaderBytes)})
		return
	}
	e(isa.Inst{Op: isa.OpShli, Rd: isa.RTmp0 + 1, Rs1: idx, Imm: 3})
	e(isa.Inst{Op: isa.OpAdd, Rd: isa.RTmp0 + 1, Rs1: arr, Rs2: isa.RTmp0 + 1})
	if op == bytecode.FAStore {
		e(isa.Inst{Op: isa.OpFSt, Rs1: isa.RTmp0 + 1, Rs2: floatReg(depth - 1), Imm: int64(vm.ArrHeaderBytes)})
	} else {
		e(isa.Inst{Op: isa.OpSt, Rs1: isa.RTmp0 + 1, Rs2: intReg(depth - 1), Imm: int64(vm.ArrHeaderBytes)})
	}
}

// invoke generates a call site.
func (g *gen) invoke(i int, ins bytecode.Instr) error {
	cls := g.cls
	ref := &cls.Pool.Methods[ins.A]
	callee := ref.Resolved
	e := g.emit
	depth := len(g.types[i])

	if callee.Class.Name == "Sys" {
		return g.intrinsic(i, callee)
	}

	nargs := len(callee.Sig.Params)
	total := nargs
	if !callee.IsStatic() {
		total++
	}
	base := depth - total // stack slot of first arg (receiver)

	// Marshal arguments into ABI registers.
	regs, _ := isa.ArgRegs(nil, ArgFloats(nil, callee))
	for k, r := range regs {
		src := g.regFor(base+k, g.stk(i, base+k))
		if r >= isa.FReg0 {
			e(isa.Inst{Op: isa.OpFMov, Rd: r, Rs1: src})
		} else {
			e(isa.Inst{Op: isa.OpAddi, Rd: r, Rs1: src})
		}
	}

	virtual := ins.Op == bytecode.InvokeVirtual
	if virtual && g.opt.Facts != nil {
		// Whole-program proof: bind the site to its unique target (same
		// signature, so the argument marshalling above is unaffected).
		if t := g.opt.Facts.DevirtTarget(g.m, i); t != nil {
			callee = t
			virtual = false
		}
	}
	if virtual && g.opt.Devirtualize && g.c.monomorphic(callee) {
		virtual = false
	}
	if virtual {
		// classid load, vtable address arithmetic, entry load, jalr.
		recv := intReg(base)
		e(isa.Inst{Op: isa.OpLd, Rd: isa.RTmp0, Rs1: recv, Imm: 0})
		e(isa.Inst{Op: isa.OpShli, Rd: isa.RTmp0, Rs1: isa.RTmp0, Imm: 12})
		e(isa.Inst{Op: isa.OpLui, Rd: isa.RTmp0 + 1, Imm: int64(vm.VTableEntryAddr(0, callee.VIndex))})
		e(isa.Inst{Op: isa.OpAdd, Rd: isa.RTmp0, Rs1: isa.RTmp0, Rs2: isa.RTmp0 + 1})
		e(isa.Inst{Op: isa.OpLd, Rd: isa.RTmp0, Rs1: isa.RTmp0, Imm: 0})
		e(isa.Inst{Op: isa.OpJalr, Rs1: isa.RTmp0})
	} else {
		e(isa.Inst{Op: isa.OpJal, Target: vm.StubAddr(callee.ID)})
	}

	// Capture the return value into the result stack slot.
	if callee.Sig.Ret != bytecode.TVoid {
		if callee.Sig.Ret == bytecode.TFloat {
			e(isa.Inst{Op: isa.OpFMov, Rd: floatReg(base), Rs1: isa.FReg0})
		} else {
			e(isa.Inst{Op: isa.OpAddi, Rd: intReg(base), Rs1: isa.RRet})
		}
	}
	return nil
}

// monomorphic reports whether CHA proves callee is the only reachable
// implementation at its vtable slot among loaded classes. A Compiler
// method (not gen) so translationKey can replay the same verdict when
// content-addressing the translation.
func (c *Compiler) monomorphic(callee *bytecode.Method) bool {
	if callee.VIndex < 0 {
		return true
	}
	decl := callee.Class
	for _, cl := range c.VM.ClassList {
		if callee.VIndex >= len(cl.VTable) {
			continue
		}
		if !descendsFrom(cl, decl) {
			continue
		}
		if cl.VTable[callee.VIndex] != callee {
			return false
		}
	}
	return true
}

func descendsFrom(c, anc *bytecode.Class) bool {
	for k := c; k != nil; k = k.Super {
		if k == anc {
			return true
		}
	}
	return false
}

// intrinsic generates Sys.* calls as runtime services.
func (g *gen) intrinsic(i int, callee *bytecode.Method) error {
	e := g.emit
	depth := len(g.types[i])
	top := depth - 1
	switch callee.Name {
	case "print":
		e(isa.Inst{Op: isa.OpAddi, Rd: isa.RArg0, Rs1: intReg(top)})
		e(isa.Inst{Op: isa.OpCallRT, Imm: isa.SvcPrintStr})
	case "printi":
		e(isa.Inst{Op: isa.OpAddi, Rd: isa.RArg0, Rs1: intReg(top)})
		e(isa.Inst{Op: isa.OpCallRT, Imm: isa.SvcPrintInt})
	case "printf":
		e(isa.Inst{Op: isa.OpFMov, Rd: isa.FReg0, Rs1: floatReg(top)})
		e(isa.Inst{Op: isa.OpCallRT, Imm: isa.SvcPrintFloat})
	case "printc":
		e(isa.Inst{Op: isa.OpAddi, Rd: isa.RArg0, Rs1: intReg(top)})
		e(isa.Inst{Op: isa.OpCallRT, Imm: isa.SvcPrintChar})
	case "spawn":
		e(isa.Inst{Op: isa.OpAddi, Rd: isa.RArg0, Rs1: intReg(top)})
		e(isa.Inst{Op: isa.OpCallRT, Imm: isa.SvcSpawn})
		e(isa.Inst{Op: isa.OpAddi, Rd: intReg(top), Rs1: isa.RRet})
	case "join":
		e(isa.Inst{Op: isa.OpAddi, Rd: isa.RArg0, Rs1: intReg(top)})
		e(isa.Inst{Op: isa.OpCallRT, Imm: isa.SvcJoin})
	case "yield":
		e(isa.Inst{Op: isa.OpCallRT, Imm: isa.SvcYield})
	default:
		return fmt.Errorf("jit: unknown intrinsic Sys.%s", callee.Name)
	}
	return nil
}

func intOpFor(op bytecode.Op) isa.Op {
	switch op {
	case bytecode.IAdd:
		return isa.OpAdd
	case bytecode.ISub:
		return isa.OpSub
	case bytecode.IMul:
		return isa.OpMul
	case bytecode.IDiv:
		return isa.OpDiv
	case bytecode.IRem:
		return isa.OpRem
	case bytecode.IAnd:
		return isa.OpAnd
	case bytecode.IOr:
		return isa.OpOr
	case bytecode.IXor:
		return isa.OpXor
	case bytecode.IShl:
		return isa.OpShl
	case bytecode.IShr:
		return isa.OpShr
	case bytecode.IUshr:
		return isa.OpShru
	}
	panic("unreachable")
}

func floatOpFor(op bytecode.Op) isa.Op {
	switch op {
	case bytecode.FAdd:
		return isa.OpFAdd
	case bytecode.FSub:
		return isa.OpFSub
	case bytecode.FMul:
		return isa.OpFMul
	case bytecode.FDiv:
		return isa.OpFDiv
	}
	panic("unreachable")
}

func unaryBranchFor(op bytecode.Op) isa.Op {
	switch op {
	case bytecode.IfEq, bytecode.IfNull:
		return isa.OpBeq
	case bytecode.IfNe, bytecode.IfNonNull:
		return isa.OpBne
	case bytecode.IfLt:
		return isa.OpBlt
	case bytecode.IfGe:
		return isa.OpBge
	case bytecode.IfGt:
		return isa.OpBgt
	case bytecode.IfLe:
		return isa.OpBle
	}
	panic("unreachable")
}

func binBranchFor(op bytecode.Op) isa.Op {
	switch op {
	case bytecode.IfICmpEq, bytecode.IfACmpEq:
		return isa.OpBeq
	case bytecode.IfICmpNe, bytecode.IfACmpNe:
		return isa.OpBne
	case bytecode.IfICmpLt:
		return isa.OpBlt
	case bytecode.IfICmpGe:
		return isa.OpBge
	case bytecode.IfICmpGt:
		return isa.OpBgt
	case bytecode.IfICmpLe:
		return isa.OpBle
	}
	panic("unreachable")
}
