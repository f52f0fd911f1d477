package interp

import (
	"testing"

	"jrs/internal/bytecode"
	"jrs/internal/mem"
	"jrs/internal/rt"
	"jrs/internal/trace"
	"jrs/internal/vm"
)

// setup builds a VM with one class holding the method body and returns a
// started frame plus a trace counter.
func setup(t *testing.T, maxLocals int, code []bytecode.Instr, pool func(*bytecode.Pool)) (*Interp, *vm.Thread, *Frame, *trace.Counter) {
	t.Helper()
	sig, _ := bytecode.ParseSignature("()V")
	m := &bytecode.Method{Name: "m", Sig: sig, Flags: bytecode.FlagStatic,
		MaxLocals: maxLocals, Code: code}
	c := &bytecode.Class{Name: "T", Methods: []*bytecode.Method{m}}
	if pool != nil {
		pool(&c.Pool)
	}
	ctr := &trace.Counter{}
	v := vm.New(ctr, nil)
	// Several tests drive the interpreter with deliberately ill-typed
	// bodies (IStore on an empty stack to receive a pushed call result,
	// IReturn from a ()V method) to exercise trap mechanics, so loading
	// here skips the full analysis verifier.
	v.Verify = vm.VerifyStructural
	if err := v.Load([]*bytecode.Class{c}); err != nil {
		t.Fatal(err)
	}
	in := New(v)
	th := v.NewThread(nil, 0)
	f := new(Frame)
	in.PushFrame(f, th, m, nil)
	return in, th, f, ctr
}

// runAll steps until a trap, returning it.
func runAll(t *testing.T, in *Interp, th *vm.Thread, f *Frame) rt.Trap {
	t.Helper()
	for i := 0; i < 100000; i++ {
		tr := in.Step(th, f)
		if tr.Kind != rt.TrapNone {
			return tr
		}
	}
	t.Fatal("no trap after 100000 steps")
	return rt.Trap{}
}

func TestArithmeticSemantics(t *testing.T) {
	cases := []struct {
		op   bytecode.Op
		a, b int64
		want int64
	}{
		{bytecode.IAdd, 7, 5, 12},
		{bytecode.ISub, 7, 5, 2},
		{bytecode.IMul, -3, 5, -15},
		{bytecode.IDiv, 17, 5, 3},
		{bytecode.IRem, 17, 5, 2},
		{bytecode.IAnd, 12, 10, 8},
		{bytecode.IOr, 12, 10, 14},
		{bytecode.IXor, 12, 10, 6},
		{bytecode.IShl, 3, 4, 48},
		{bytecode.IShr, -16, 2, -4},
		{bytecode.IUshr, -1, 60, 15},
	}
	for _, tc := range cases {
		code := bytecode.NewAsm().
			I(bytecode.IConst, int32(tc.a)).
			I(bytecode.IConst, int32(tc.b)).
			Emit(tc.op).
			I(bytecode.IStore, 0).
			Emit(bytecode.Return).MustAssemble()
		in, th, f, _ := setup(t, 1, code, nil)
		tr := runAll(t, in, th, f)
		if tr.Kind != rt.TrapReturn {
			t.Fatalf("%v: trap %v", tc.op, tr.Kind)
		}
		if f.Locals[0] != tc.want {
			t.Errorf("%v(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, f.Locals[0], tc.want)
		}
	}
}

func TestDivideByZeroThrows(t *testing.T) {
	code := bytecode.NewAsm().
		I(bytecode.IConst, 1).I(bytecode.IConst, 0).
		Emit(bytecode.IDiv).Emit(bytecode.Return).MustAssemble()
	in, th, f, _ := setup(t, 1, code, nil)
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected ArithmeticError panic")
		}
	}()
	runAll(t, in, th, f)
}

func TestFloatOps(t *testing.T) {
	code := bytecode.NewAsm().
		I(bytecode.FConst, 0). // 2.5
		I(bytecode.FConst, 1). // 4.0
		Emit(bytecode.FMul).
		Emit(bytecode.F2I).
		I(bytecode.IStore, 0).
		Emit(bytecode.Return).MustAssemble()
	in, th, f, _ := setup(t, 1, code, func(p *bytecode.Pool) {
		p.AddFloat(2.5)
		p.AddFloat(4.0)
	})
	runAll(t, in, th, f)
	if f.Locals[0] != 10 {
		t.Fatalf("2.5*4.0 = %d, want 10", f.Locals[0])
	}
}

func TestBranchingLoop(t *testing.T) {
	// s = 0; for i in 0..4: s += i
	a := bytecode.NewAsm()
	a.I(bytecode.IConst, 0).I(bytecode.IStore, 0)
	a.I(bytecode.IConst, 0).I(bytecode.IStore, 1)
	a.Label("loop").
		I(bytecode.ILoad, 1).I(bytecode.IConst, 5).
		Branch(bytecode.IfICmpGe, "end").
		I(bytecode.ILoad, 0).I(bytecode.ILoad, 1).Emit(bytecode.IAdd).
		I(bytecode.IStore, 0).
		Op(bytecode.IInc, 1, 1).
		Branch(bytecode.Goto, "loop").
		Label("end").Emit(bytecode.Return)
	in, th, f, ctr := setup(t, 2, a.MustAssemble(), nil)
	runAll(t, in, th, f)
	if f.Locals[0] != 10 {
		t.Fatalf("sum = %d", f.Locals[0])
	}
	// The dispatch loop must have produced indirect jumps and data reads
	// of the bytecode stream.
	if ctr.ByClass(trace.IndirectJump) == 0 {
		t.Error("no dispatch indirect jumps in trace")
	}
	if ctr.ByClass(trace.Load) == 0 || ctr.ByClass(trace.Store) == 0 {
		t.Error("no memory traffic in trace")
	}
}

func TestArrays(t *testing.T) {
	a := bytecode.NewAsm()
	a.I(bytecode.IConst, 3).I(bytecode.NewArray, bytecode.KindInt).
		I(bytecode.AStore, 0)
	// arr[2] = 9
	a.I(bytecode.ALoad, 0).I(bytecode.IConst, 2).I(bytecode.IConst, 9).
		Emit(bytecode.IAStore)
	// local1 = arr[2] + arr.length
	a.I(bytecode.ALoad, 0).I(bytecode.IConst, 2).Emit(bytecode.IALoad).
		I(bytecode.ALoad, 0).Emit(bytecode.ArrayLength).Emit(bytecode.IAdd).
		I(bytecode.IStore, 1)
	a.Emit(bytecode.Return)
	in, th, f, _ := setup(t, 2, a.MustAssemble(), nil)
	runAll(t, in, th, f)
	if f.Locals[1] != 12 {
		t.Fatalf("arr[2]+len = %d, want 12", f.Locals[1])
	}
}

func TestBoundsThrow(t *testing.T) {
	a := bytecode.NewAsm()
	a.I(bytecode.IConst, 2).I(bytecode.NewArray, bytecode.KindInt).
		I(bytecode.IConst, 5).Emit(bytecode.IALoad).Emit(bytecode.Return)
	in, th, f, _ := setup(t, 1, a.MustAssemble(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected bounds panic")
		}
	}()
	runAll(t, in, th, f)
}

func TestStackOps(t *testing.T) {
	a := bytecode.NewAsm()
	a.I(bytecode.IConst, 1).I(bytecode.IConst, 2).
		Emit(bytecode.Swap). // 2 1
		Emit(bytecode.Dup).  // 2 1 1
		Emit(bytecode.IAdd). // 2 2
		Emit(bytecode.IAdd). // 4
		I(bytecode.IStore, 0).
		Emit(bytecode.Return)
	in, th, f, _ := setup(t, 1, a.MustAssemble(), nil)
	runAll(t, in, th, f)
	if f.Locals[0] != 4 {
		t.Fatalf("stack ops = %d, want 4", f.Locals[0])
	}
}

func TestInvokeTrap(t *testing.T) {
	code := func(p *bytecode.Pool) {
		p.AddMethod("T", "m", "()V")
	}
	a := bytecode.NewAsm()
	a.I(bytecode.InvokeStatic, 0).Emit(bytecode.Return)
	in, th, f, _ := setup(t, 1, a.MustAssemble(), code)
	tr := runAll(t, in, th, f)
	if tr.Kind != rt.TrapCall || tr.Target == nil || tr.Target.Name != "m" {
		t.Fatalf("trap %+v", tr)
	}
	// Frame advanced past the call: resuming returns.
	tr = runAll(t, in, th, f)
	if tr.Kind != rt.TrapReturn {
		t.Fatalf("resume trap %v", tr.Kind)
	}
}

func TestReturnValueTrap(t *testing.T) {
	a := bytecode.NewAsm()
	a.I(bytecode.IConst, 99).Emit(bytecode.IReturn)
	in, th, f, _ := setup(t, 1, a.MustAssemble(), nil)
	tr := runAll(t, in, th, f)
	if tr.Kind != rt.TrapReturn || !tr.HasVal || tr.Val != 99 {
		t.Fatalf("return trap %+v", tr)
	}
}

func TestHandlerPCsDisjoint(t *testing.T) {
	seen := map[uint64]bytecode.Op{}
	for op := bytecode.Op(0); op < bytecode.NumOps; op++ {
		pc := HandlerPC(op)
		if prev, dup := seen[pc]; dup {
			t.Fatalf("handlers for %v and %v share PC %#x", prev, op, pc)
		}
		seen[pc] = op
		if pc < mem.HandlerBase || pc >= mem.TranslatorBase {
			t.Fatalf("handler %v PC %#x outside handler segment", op, pc)
		}
	}
}

func TestPushDelivery(t *testing.T) {
	a := bytecode.NewAsm()
	a.I(bytecode.IStore, 0).Emit(bytecode.Return)
	in, th, f, _ := setup(t, 1, a.MustAssemble(), nil)
	in.Push(f, 1234) // engine delivering a call result
	runAll(t, in, th, f)
	if f.Locals[0] != 1234 {
		t.Fatal("pushed value not visible")
	}
}
