package jit

import (
	"strings"
	"testing"

	"jrs/internal/analysis"
	"jrs/internal/bytecode"
	"jrs/internal/isa"
	"jrs/internal/trace"
	"jrs/internal/vm"
)

func buildVM(t *testing.T, classes ...*bytecode.Class) *vm.VM {
	t.Helper()
	v := vm.New(trace.Discard, nil)
	if err := v.Load(classes); err != nil {
		t.Fatal(err)
	}
	return v
}

func method(name, sig string, flags uint32, maxLocals int, code []bytecode.Instr) *bytecode.Method {
	s, err := bytecode.ParseSignature(sig)
	if err != nil {
		panic(err)
	}
	return &bytecode.Method{Name: name, Sig: s, Flags: flags,
		MaxLocals: maxLocals, Code: code}
}

func TestCompileSimple(t *testing.T) {
	m := method("f", "()I", bytecode.FlagStatic, 1, bytecode.NewAsm().
		I(bytecode.IConst, 2).
		I(bytecode.IConst, 3).
		Emit(bytecode.IAdd).
		Emit(bytecode.IReturn).MustAssemble())
	c := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m}}
	v := buildVM(t, c)
	jc := New(v, DefaultOptions())
	cm, err := jc.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm.Code) == 0 {
		t.Fatal("no code emitted")
	}
	if cm.Code[len(cm.Code)-1].Op != isa.OpRet {
		t.Fatal("last instruction should be ret")
	}
	// Idempotent.
	cm2, _ := jc.Compile(m)
	if cm2 != cm {
		t.Fatal("recompile should return cached")
	}
	if jc.Translations != 1 {
		t.Fatal("translation count")
	}
}

func TestCompileEmitsTranslateTrace(t *testing.T) {
	ctr := &trace.Counter{}
	m := method("f", "()V", bytecode.FlagStatic, 1, bytecode.NewAsm().
		I(bytecode.IConst, 1).Emit(bytecode.Pop).Emit(bytecode.Return).MustAssemble())
	c := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m}}
	v := vm.New(ctr, nil)
	if err := v.Load([]*bytecode.Class{c}); err != nil {
		t.Fatal(err)
	}
	jc := New(v, DefaultOptions())
	if _, err := jc.Compile(m); err != nil {
		t.Fatal(err)
	}
	if ctr.ByPhase(trace.PhaseTranslate) == 0 {
		t.Fatal("no translate-phase trace emitted")
	}
	// Installation writes into the code cache must appear as stores.
	if ctr.ByClass(trace.Store) == 0 {
		t.Fatal("no install stores")
	}
}

func TestBranchTargetsResolved(t *testing.T) {
	a := bytecode.NewAsm()
	a.I(bytecode.IConst, 0).I(bytecode.IStore, 0)
	a.Label("top").
		I(bytecode.ILoad, 0).I(bytecode.IConst, 10).
		Branch(bytecode.IfICmpGe, "done").
		Op(bytecode.IInc, 0, 1).
		Branch(bytecode.Goto, "top").
		Label("done").Emit(bytecode.Return)
	m := method("f", "()V", bytecode.FlagStatic, 1, a.MustAssemble())
	c := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m}}
	v := buildVM(t, c)
	jc := New(v, DefaultOptions())
	cm, err := jc.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range cm.Code {
		if in.IsBranch() || in.Op == isa.OpJ {
			if in.Target == vm.TrapPC {
				continue
			}
			if in.Target < cm.Base || in.Target >= cm.Base+uint64(len(cm.Code))*4 {
				t.Errorf("instr %d (%s) target %#x outside method [%#x,%#x)",
					i, in.Disassemble(), in.Target, cm.Base, cm.Base+uint64(len(cm.Code))*4)
			}
		}
	}
}

func TestDevirtualization(t *testing.T) {
	// Base.run overridden by Derived: call site is polymorphic -> jalr.
	mk := func() (*bytecode.Class, *bytecode.Class, *bytecode.Class) {
		baseRun := method("run", "()V", 0, 1,
			[]bytecode.Instr{{Op: bytecode.Return}})
		base := &bytecode.Class{Name: "Base", Methods: []*bytecode.Method{baseRun}}
		derRun := method("run", "()V", 0, 1,
			[]bytecode.Instr{{Op: bytecode.Return}})
		der := &bytecode.Class{Name: "Derived", SuperName: "Base",
			Methods: []*bytecode.Method{derRun}}

		caller := &bytecode.Class{Name: "C"}
		ref := caller.Pool.AddMethod("Base", "run", "()V")
		code := bytecode.NewAsm().
			I(bytecode.ALoad, 0).
			I(bytecode.InvokeVirtual, ref).
			Emit(bytecode.Return).MustAssemble()
		caller.Methods = []*bytecode.Method{method("call", "(A)V", bytecode.FlagStatic, 1, code)}
		return base, der, caller
	}

	// Polymorphic: expect an indirect call.
	base, der, caller := mk()
	v := buildVM(t, base, der, caller)
	jc := New(v, DefaultOptions())
	cm, err := jc.Compile(caller.Methods[0])
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(cm, isa.OpJalr) {
		t.Error("polymorphic call should use jalr")
	}

	// Monomorphic (no override): expect a direct jal.
	baseRun := method("run", "()V", 0, 1, []bytecode.Instr{{Op: bytecode.Return}})
	soloBase := &bytecode.Class{Name: "Base", Methods: []*bytecode.Method{baseRun}}
	_, _, caller2 := mk()
	v2 := buildVM(t, soloBase, caller2)
	jc2 := New(v2, DefaultOptions())
	cm2, err := jc2.Compile(caller2.Methods[0])
	if err != nil {
		t.Fatal(err)
	}
	if hasOp(cm2, isa.OpJalr) {
		t.Error("monomorphic call should be devirtualized")
	}
	if !hasOp(cm2, isa.OpJal) {
		t.Error("monomorphic call should emit jal")
	}

	// Devirtualization off: always jalr.
	opts := DefaultOptions()
	opts.Devirtualize = false
	jc3 := New(buildVM(t, soloBaseDup(), caller2dup()), opts)
	cm3, err := jc3.Compile(jc3.VM.Classes["C"].Methods[0])
	if err != nil {
		t.Fatal(err)
	}
	if !hasOp(cm3, isa.OpJalr) {
		t.Error("with devirtualization off, virtual calls must use jalr")
	}
}

func soloBaseDup() *bytecode.Class {
	return &bytecode.Class{Name: "Base", Methods: []*bytecode.Method{
		method("run", "()V", 0, 1, []bytecode.Instr{{Op: bytecode.Return}})}}
}

func caller2dup() *bytecode.Class {
	caller := &bytecode.Class{Name: "C"}
	ref := caller.Pool.AddMethod("Base", "run", "()V")
	code := bytecode.NewAsm().
		I(bytecode.ALoad, 0).
		I(bytecode.InvokeVirtual, ref).
		Emit(bytecode.Return).MustAssemble()
	caller.Methods = []*bytecode.Method{method("call", "(A)V", bytecode.FlagStatic, 1, code)}
	return caller
}

func hasOp(cm *Compiled, op isa.Op) bool {
	for _, in := range cm.Code {
		if in.Op == op {
			return true
		}
	}
	return false
}

func TestTypeflowRejectsBadStack(t *testing.T) {
	// Pop from empty stack.
	m := method("f", "()V", bytecode.FlagStatic, 1,
		[]bytecode.Instr{{Op: bytecode.Pop}, {Op: bytecode.Return}})
	c := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m}}
	if _, err := analysis.TypeFlow(c, m); err == nil ||
		!strings.Contains(err.Error(), "underflow") {
		t.Fatalf("err = %v", err)
	}
	// Inconsistent join depth.
	a := bytecode.NewAsm()
	a.I(bytecode.IConst, 1).
		Branch(bytecode.IfEq, "join").
		I(bytecode.IConst, 5). // one path pushes
		Label("join").
		Emit(bytecode.Return)
	m2 := method("g", "()V", bytecode.FlagStatic, 1, a.MustAssemble())
	c2 := &bytecode.Class{Name: "B", Methods: []*bytecode.Method{m2}}
	if _, err := analysis.TypeFlow(c2, m2); err == nil ||
		!strings.Contains(err.Error(), "join") {
		t.Fatalf("join err = %v", err)
	}
}

func TestCompileRejectsDeepStack(t *testing.T) {
	a := bytecode.NewAsm()
	for i := 0; i < 20; i++ {
		a.I(bytecode.IConst, int32(i))
	}
	for i := 0; i < 20; i++ {
		a.Emit(bytecode.Pop)
	}
	a.Emit(bytecode.Return)
	m := method("deep", "()V", bytecode.FlagStatic, 1, a.MustAssemble())
	c := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m}}
	v := buildVM(t, c)
	jc := New(v, DefaultOptions())
	if _, err := jc.Compile(m); err == nil {
		t.Fatal("over-deep stack should be rejected")
	}
	// The failure is cached.
	if _, err := jc.Compile(m); err == nil {
		t.Fatal("cached failure missing")
	}
	if len(jc.Failed) != 1 {
		t.Fatal("failure not recorded")
	}
}

func TestBaselineVsRegisterCodegenSize(t *testing.T) {
	mkM := func() *bytecode.Method {
		a := bytecode.NewAsm()
		a.I(bytecode.IConst, 0).I(bytecode.IStore, 0)
		a.Label("top").
			I(bytecode.ILoad, 0).I(bytecode.IConst, 100).
			Branch(bytecode.IfICmpGe, "end").
			Op(bytecode.IInc, 0, 1).
			Branch(bytecode.Goto, "top").
			Label("end").Emit(bytecode.Return)
		return method("f", "()V", bytecode.FlagStatic, 1, a.MustAssemble())
	}
	m1 := mkM()
	c1 := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m1}}
	jcBase := New(buildVM(t, c1), DefaultOptions())
	cmBase, err := jcBase.Compile(m1)
	if err != nil {
		t.Fatal(err)
	}

	m2 := mkM()
	c2 := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m2}}
	opts := DefaultOptions()
	opts.BaselineCodegen = false
	jcReg := New(buildVM(t, c2), opts)
	cmReg, err := jcReg.Compile(m2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmBase.Code) <= len(cmReg.Code) {
		t.Errorf("baseline codegen (%d instrs) should be bigger than register codegen (%d)",
			len(cmBase.Code), len(cmReg.Code))
	}
}
