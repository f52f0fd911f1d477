package native

import (
	"testing"

	"jrs/internal/bytecode"
	"jrs/internal/jit"
	"jrs/internal/rt"
	"jrs/internal/trace"
	"jrs/internal/vm"
)

// compile builds a VM, compiles m's class, and returns an activation.
func compileOne(t *testing.T, classes []*bytecode.Class, m *bytecode.Method, args []int64, sink trace.Sink) (*CPU, *vm.Thread, *Activation) {
	t.Helper()
	if sink == nil {
		sink = trace.Discard
	}
	v := vm.New(sink, nil)
	if err := v.Load(classes); err != nil {
		t.Fatal(err)
	}
	jc := jit.New(v, jit.DefaultOptions())
	cm, err := jc.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	cpu := New(v)
	th := v.NewThread(nil, 0)
	act := new(Activation)
	cpu.Activate(act, th, cm, args, 0)
	return cpu, th, act
}

func mkMethod(name, sig string, maxLocals int, code []bytecode.Instr) *bytecode.Method {
	s, err := bytecode.ParseSignature(sig)
	if err != nil {
		panic(err)
	}
	return &bytecode.Method{Name: name, Sig: s, Flags: bytecode.FlagStatic,
		MaxLocals: maxLocals, Code: code}
}

func TestExecuteArithmetic(t *testing.T) {
	m := mkMethod("f", "(II)I", 2, bytecode.NewAsm().
		I(bytecode.ILoad, 0).
		I(bytecode.ILoad, 1).
		Emit(bytecode.IMul).
		I(bytecode.IConst, 1).
		Emit(bytecode.IAdd).
		Emit(bytecode.IReturn).MustAssemble())
	c := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m}}
	cpu, th, act := compileOne(t, []*bytecode.Class{c}, m, []int64{6, 7}, nil)
	tr := cpu.Run(th, act, 100000)
	if tr.Kind != rt.TrapReturn || !tr.HasVal || tr.Val != 43 {
		t.Fatalf("trap %+v", tr)
	}
}

func TestExecuteFloat(t *testing.T) {
	m := mkMethod("f", "(FF)F", 2, bytecode.NewAsm().
		I(bytecode.FLoad, 0).
		I(bytecode.FLoad, 1).
		Emit(bytecode.FDiv).
		Emit(bytecode.FReturn).MustAssemble())
	c := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m}}
	cpu, th, act := compileOne(t, []*bytecode.Class{c}, m,
		[]int64{vm.F2Bits(7.0), vm.F2Bits(2.0)}, nil)
	tr := cpu.Run(th, act, 100000)
	if !tr.HasVal || vm.Bits2F(tr.Val) != 3.5 {
		t.Fatalf("7/2 = %v", vm.Bits2F(tr.Val))
	}
}

func TestExecuteLoop(t *testing.T) {
	// sum 0..99 via locals in the frame.
	a := bytecode.NewAsm()
	a.I(bytecode.IConst, 0).I(bytecode.IStore, 0)
	a.I(bytecode.IConst, 0).I(bytecode.IStore, 1)
	a.Label("top").
		I(bytecode.ILoad, 1).I(bytecode.IConst, 100).
		Branch(bytecode.IfICmpGe, "end").
		I(bytecode.ILoad, 0).I(bytecode.ILoad, 1).Emit(bytecode.IAdd).
		I(bytecode.IStore, 0).
		Op(bytecode.IInc, 1, 1).
		Branch(bytecode.Goto, "top").
		Label("end").
		I(bytecode.ILoad, 0).Emit(bytecode.IReturn)
	m := mkMethod("f", "()I", 2, a.MustAssemble())
	c := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m}}
	cpu, th, act := compileOne(t, []*bytecode.Class{c}, m, nil, nil)
	tr := cpu.Run(th, act, 1000000)
	if tr.Val != 4950 {
		t.Fatalf("sum = %d", tr.Val)
	}
}

func TestQuantumExpiry(t *testing.T) {
	a := bytecode.NewAsm()
	a.Label("spin").Branch(bytecode.Goto, "spin")
	a.Emit(bytecode.Return)
	m := mkMethod("f", "()V", 1, a.MustAssemble())
	c := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m}}
	cpu, th, act := compileOne(t, []*bytecode.Class{c}, m, nil, nil)
	tr := cpu.Run(th, act, 100)
	if tr.Kind != rt.TrapNone {
		t.Fatalf("spin loop should hit quantum, got %v", tr.Kind)
	}
	// Resumable.
	tr = cpu.Run(th, act, 100)
	if tr.Kind != rt.TrapNone {
		t.Fatal("resume should keep spinning")
	}
}

func TestArraysAndRuntimeCalls(t *testing.T) {
	a := bytecode.NewAsm()
	a.I(bytecode.IConst, 4).I(bytecode.NewArray, bytecode.KindInt).
		I(bytecode.AStore, 0)
	a.I(bytecode.ALoad, 0).I(bytecode.IConst, 1).I(bytecode.IConst, 55).
		Emit(bytecode.IAStore)
	a.I(bytecode.ALoad, 0).I(bytecode.IConst, 1).Emit(bytecode.IALoad).
		I(bytecode.ALoad, 0).Emit(bytecode.ArrayLength).Emit(bytecode.IAdd).
		Emit(bytecode.IReturn)
	m := mkMethod("f", "()I", 1, a.MustAssemble())
	c := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m}}
	cpu, th, act := compileOne(t, []*bytecode.Class{c}, m, nil, nil)
	tr := cpu.Run(th, act, 1000000)
	if tr.Val != 59 {
		t.Fatalf("arr[1]+len = %d, want 59", tr.Val)
	}
}

func TestBoundsTrapThrows(t *testing.T) {
	a := bytecode.NewAsm()
	a.I(bytecode.IConst, 2).I(bytecode.NewArray, bytecode.KindInt).
		I(bytecode.IConst, 9).Emit(bytecode.IALoad).Emit(bytecode.Return)
	m := mkMethod("f", "()V", 1, a.MustAssemble())
	c := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m}}
	cpu, th, act := compileOne(t, []*bytecode.Class{c}, m, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected bounds panic")
		}
	}()
	cpu.Run(th, act, 100000)
}

func TestNullDereferenceThrows(t *testing.T) {
	cls := &bytecode.Class{Name: "A",
		Fields: []bytecode.Field{{Name: "x", Type: bytecode.TInt}}}
	fref := cls.Pool.AddField("A", "x")
	a := bytecode.NewAsm()
	a.Emit(bytecode.AConstNull).I(bytecode.GetField, fref).Emit(bytecode.Return)
	m := mkMethod("f", "()V", 1, a.MustAssemble())
	cls.Methods = []*bytecode.Method{m}
	cpu, th, act := compileOne(t, []*bytecode.Class{cls}, m, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected null panic")
		}
	}()
	cpu.Run(th, act, 100000)
}

func TestCallTrapAndArgMarshalling(t *testing.T) {
	callee := mkMethod("g", "(IF)I", 2, bytecode.NewAsm().
		I(bytecode.ILoad, 0).Emit(bytecode.IReturn).MustAssemble())
	cls := &bytecode.Class{Name: "A"}
	ref := cls.Pool.AddMethod("A", "g", "(IF)I")
	caller := mkMethod("f", "()I", 1, bytecode.NewAsm().
		I(bytecode.IConst, 11).
		I(bytecode.FConst, 0).
		I(bytecode.InvokeStatic, ref).
		Emit(bytecode.IReturn).MustAssemble())
	cls.Pool.AddFloat(1.5)
	cls.Methods = []*bytecode.Method{caller, callee}
	cpu, th, act := compileOne(t, []*bytecode.Class{cls}, caller, nil, nil)
	tr := cpu.Run(th, act, 100000)
	if tr.Kind != rt.TrapCall || tr.Target != callee {
		t.Fatalf("trap %+v", tr)
	}
	args := cpu.ReadArgs(act, callee)
	if len(args) != 2 || args[0] != 11 || vm.Bits2F(args[1]) != 1.5 {
		t.Fatalf("args %v", args)
	}
	// Deliver the result and resume.
	SetResult(act, bytecode.TInt, 42)
	tr = cpu.Run(th, act, 100000)
	if tr.Kind != rt.TrapReturn || tr.Val != 42 {
		t.Fatalf("resume %+v", tr)
	}
}

func TestMonitorService(t *testing.T) {
	cls := &bytecode.Class{Name: "A"}
	clsRef := cls.Pool.AddClass("A")
	a := bytecode.NewAsm()
	a.I(bytecode.New, clsRef).I(bytecode.AStore, 0)
	a.I(bytecode.ALoad, 0).Emit(bytecode.MonitorEnter)
	a.I(bytecode.ALoad, 0).Emit(bytecode.MonitorExit)
	a.I(bytecode.IConst, 1).Emit(bytecode.IReturn)
	m := mkMethod("f", "()I", 1, a.MustAssemble())
	cls.Methods = []*bytecode.Method{m}
	cpu, th, act := compileOne(t, []*bytecode.Class{cls}, m, nil, nil)
	// MonitorExit yields; drive until return.
	var tr rt.Trap
	for i := 0; i < 10; i++ {
		tr = cpu.Run(th, act, 100000)
		if tr.Kind == rt.TrapReturn {
			break
		}
		if tr.Kind != rt.TrapYield && tr.Kind != rt.TrapNone {
			t.Fatalf("unexpected trap %v", tr.Kind)
		}
	}
	if tr.Kind != rt.TrapReturn || tr.Val != 1 {
		t.Fatalf("final %+v", tr)
	}
	st := cpu.VM.Monitors.Stats()
	if st.Enters != 1 || st.Exits != 1 {
		t.Fatalf("monitor stats %+v", st)
	}
}

func TestTraceHasRealPCsAndAddrs(t *testing.T) {
	ctr := &trace.Counter{}
	m := mkMethod("f", "()I", 2, bytecode.NewAsm().
		I(bytecode.IConst, 3).I(bytecode.IStore, 0).
		I(bytecode.ILoad, 0).Emit(bytecode.IReturn).MustAssemble())
	c := &bytecode.Class{Name: "A", Methods: []*bytecode.Method{m}}
	cpu, th, act := compileOne(t, []*bytecode.Class{c}, m, nil, ctr)
	cpu.Run(th, act, 100000)
	if ctr.ByPhase(trace.PhaseExec) == 0 {
		t.Fatal("no exec-phase instructions")
	}
	if ctr.ByClass(trace.Load) == 0 || ctr.ByClass(trace.Store) == 0 {
		t.Fatal("locals traffic missing from trace")
	}
	// Exactly one application-phase return (loading/translation emit
	// their own).
	if got := ctr.ByClassPhase[trace.Ret][trace.PhaseExec]; got != 1 {
		t.Fatalf("exec-phase ret events = %d", got)
	}
}

// TestArgFloats: the ABI key the decoder shares with the JIT's call-site
// generator puts the receiver first and marks float parameters,
// appending to the buffer it is given.
func TestArgFloats(t *testing.T) {
	m := mkMethod("f", "(IFA)V", 3, []bytecode.Instr{{Op: bytecode.Return}})
	fs := jit.ArgFloats(nil, m)
	want := []bool{false, true, false}
	if len(fs) != len(want) {
		t.Fatalf("ArgFloats = %v", fs)
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Fatalf("ArgFloats = %v", fs)
		}
	}
	inst := &bytecode.Method{Name: "g", Sig: m.Sig} // instance method
	if fs := jit.ArgFloats(nil, inst); len(fs) != 4 || fs[0] || !fs[2] {
		t.Fatalf("instance ArgFloats = %v", fs)
	}
	buf := make([]bool, 0, 8)
	if n := testing.AllocsPerRun(10, func() { jit.ArgFloats(buf, inst) }); n != 0 {
		t.Fatalf("ArgFloats into a roomy buffer allocates %v times", n)
	}
}
