package core

import (
	"strings"
	"testing"

	"jrs/internal/bytecode"
	"jrs/internal/minijava"
	"jrs/internal/trace"
	"jrs/internal/vm"
)

// runMJ compiles MiniJava source and runs it under p, returning engine
// and output.
func runMJ(t *testing.T, src string, p Policy) (*Engine, string) {
	t.Helper()
	classes, err := minijava.Compile("t.mj", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	e := New(Config{Policy: p})
	if err := e.VM.Load(classes); err != nil {
		t.Fatal(err)
	}
	m, err := e.VM.LookupMain()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(m); err != nil {
		t.Fatalf("run: %v", err)
	}
	return e, e.VM.Out.String()
}

// TestDeterminism: two identical runs must produce identical instruction
// streams (counted) and outputs — the property every experiment relies on.
func TestDeterminism(t *testing.T) {
	src := `
class Main {
	static int work(int n) {
		int s = 0;
		for (int i = 0; i < n; i = i + 1) { s = s ^ (s * 31 + i); }
		return s;
	}
	static void main() { Sys.printi(work(500)); }
}`
	for _, p := range []Policy{InterpretOnly{}, CompileFirst{}, Threshold{N: 3}} {
		e1, o1 := runMJ(t, src, p)
		e2, o2 := runMJ(t, src, p)
		if o1 != o2 {
			t.Fatalf("%s: outputs differ", p.Name())
		}
		if e1.TotalInstrs() != e2.TotalInstrs() {
			t.Fatalf("%s: instruction counts differ: %d vs %d",
				p.Name(), e1.TotalInstrs(), e2.TotalInstrs())
		}
		c1, c2 := e1.Clock, e2.Clock
		for cl := trace.Class(0); cl < trace.NumClasses; cl++ {
			if c1.ByClass(cl) != c2.ByClass(cl) {
				t.Fatalf("%s: class %v count differs", p.Name(), cl)
			}
		}
	}
}

// TestMixedModeCallBoundaries exercises interp->native and native->interp
// call transitions explicitly: the hot callee compiles, the cold caller
// stays interpreted, and a compiled method calls back into an interpreted
// one.
func TestMixedModeCallBoundaries(t *testing.T) {
	src := `
class Main {
	static int cold(int x) { return hot(x) + 1; }
	static int hot(int x) {
		int s = 0;
		for (int i = 0; i < 50; i = i + 1) { s = s + helper(x, i); }
		return s;
	}
	static int helper(int a, int b) { return a * b % 97; }
	static void main() {
		int total = 0;
		for (int i = 0; i < 20; i = i + 1) { total = total + cold(i); }
		Sys.printi(total);
	}
}`
	e, out := runMJ(t, src, Threshold{N: 10})
	_, outI := runMJ(t, src, InterpretOnly{})
	if out != outI {
		t.Fatalf("mixed %q != interp %q", out, outI)
	}
	hot := mustMethod(t, e, "Main", "helper")
	st := e.Stats[hot.ID]
	if st.InterpRuns == 0 || st.ExecRuns == 0 {
		t.Fatalf("helper should run in both engines: %+v", st)
	}
}

// TestRuntimeErrorsSurface converts VM panics into Run errors.
func TestRuntimeErrorsSurface(t *testing.T) {
	cases := []struct{ name, src, kind string }{
		{"bounds", `class Main { static void main() {
			int[] a = new int[2]; Sys.printi(a[5]); } }`, "ArrayIndexOutOfBounds"},
		{"null", `class Box { int v; }
		class Main { static void main() {
			Box b = null; Sys.printi(b.v); } }`, "NullPointer"},
		{"divzero", `class Main { static void main() {
			int z = 0; Sys.printi(7 / z); } }`, "ArithmeticError"},
		{"negarray", `class Main { static void main() {
			int n = 0 - 4; int[] a = new int[n]; Sys.printi(a.length); } }`, "NegativeArraySize"},
	}
	for _, tc := range cases {
		for _, p := range []Policy{InterpretOnly{}, CompileFirst{}} {
			t.Run(tc.name+"/"+p.Name(), func(t *testing.T) {
				classes, err := minijava.Compile("t.mj", tc.src)
				if err != nil {
					t.Fatal(err)
				}
				e := New(Config{Policy: p})
				if err := e.VM.Load(classes); err != nil {
					t.Fatal(err)
				}
				m, _ := e.VM.LookupMain()
				err = e.Run(m)
				if err == nil || !strings.Contains(err.Error(), tc.kind) {
					t.Fatalf("err = %v, want %s", err, tc.kind)
				}
			})
		}
	}
}

// TestThreadJoinOrdering: joining a finished thread, join before finish,
// and multiple joiners all behave.
func TestThreadJoinOrdering(t *testing.T) {
	src := `
class W {
	int id;
	int done;
	W(int i) { id = i; }
	void run() {
		int s = 0;
		for (int i = 0; i < 200 * id; i = i + 1) { s = s + i; }
		done = 1;
	}
}
class Main {
	static void main() {
		W a = new W(1);
		W b = new W(8);
		int ta = Sys.spawn(a);
		int tb = Sys.spawn(b);
		Sys.join(tb);
		Sys.join(ta);
		Sys.join(ta);
		Sys.printi(a.done + b.done);
	}
}`
	for _, p := range []Policy{InterpretOnly{}, CompileFirst{}} {
		if _, out := runMJ(t, src, p); out != "2" {
			t.Fatalf("%s: %q", p.Name(), out)
		}
	}
}

// TestContendedMonitorBlocking forces case (d) by having a worker grind
// inside a synchronized method while main contends for it.
func TestContendedMonitorBlocking(t *testing.T) {
	src := `
class Shared {
	int v;
	sync void grind(int n) {
		for (int i = 0; i < n; i = i + 1) { v = v + 1; Sys.yield(); }
	}
}
class W {
	Shared s;
	W(Shared x) { s = x; }
	void run() { s.grind(300); }
}
class Main {
	static void main() {
		Shared s = new Shared();
		int t1 = Sys.spawn(new W(s));
		s.grind(300);
		Sys.join(t1);
		Sys.printi(s.v);
	}
}`
	e, out := runMJ(t, src, CompileFirst{})
	if out != "600" {
		t.Fatalf("output %q", out)
	}
	st := e.VM.Monitors.Stats()
	if st.Cases[3] == 0 {
		t.Error("expected contended (case d) monitor activity")
	}
}

// TestSpawnErrors: spawning an object without run() fails cleanly.
func TestSpawnErrors(t *testing.T) {
	src := `
class NoRun { int x; }
class Main { static void main() { Sys.printi(Sys.spawn(new NoRun())); } }`
	classes, err := minijava.Compile("t.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{})
	if err := e.VM.Load(classes); err != nil {
		t.Fatal(err)
	}
	m, _ := e.VM.LookupMain()
	if err := e.Run(m); err == nil || !strings.Contains(err.Error(), "run()") {
		t.Fatalf("err = %v", err)
	}
}

// TestDeadlockDetection: a thread blocking forever on a monitor the
// (joining) owner never releases must be reported as a deadlock rather
// than hanging the scheduler.
func TestDeadlockDetection(t *testing.T) {
	c := &bytecode.Class{Name: "Main"}
	clsRef := c.Pool.AddClass("Main")
	sigV, _ := bytecode.ParseSignature("()V")

	// main: o = new Main; monitorenter o; monitorenter o is recursive and
	// fine — instead spawn a worker that blocks on o forever while main
	// never exits the monitor but joins the worker: deadlock.
	spawnRef := c.Pool.AddMethod("Sys", "spawn", "(A)I")
	joinRef := c.Pool.AddMethod("Sys", "join", "(I)V")
	fRef := c.Pool.AddField("Main", "shared")
	c.Statics = []bytecode.Field{{Name: "shared", Type: bytecode.TRef}}

	main := bytecode.NewAsm().
		I(bytecode.New, clsRef).
		Emit(bytecode.Dup).
		I(bytecode.PutStatic, fRef).
		Emit(bytecode.Dup).
		Emit(bytecode.MonitorEnter). // main holds the monitor forever
		I(bytecode.InvokeStatic, spawnRef).
		I(bytecode.InvokeStatic, joinRef). // waits for worker, never exits monitor
		Emit(bytecode.Return).MustAssemble()

	run := bytecode.NewAsm().
		I(bytecode.GetStatic, fRef).
		Emit(bytecode.MonitorEnter). // blocks forever
		Emit(bytecode.Return).MustAssemble()

	c.Methods = []*bytecode.Method{
		{Name: "main", Sig: sigV, Flags: bytecode.FlagStatic, MaxLocals: 2, Code: main},
		{Name: "run", Sig: sigV, MaxLocals: 1, Code: run},
	}
	classes := []*bytecode.Class{c, minijava.SysClass()}

	// main deliberately returns while holding the monitor (the leak the
	// deadlock needs), which full verification would reject.
	e := New(Config{})
	e.VM.Verify = vm.VerifyStructural
	if err := e.VM.Load(classes); err != nil {
		t.Fatal(err)
	}
	m, _ := e.VM.LookupMain()
	err := e.Run(m)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock", err)
	}
}

// TestPrecompileAll compiles every method up front (the AOT substrate).
func TestPrecompileAll(t *testing.T) {
	src := `
class Helper { static int f(int x) { return x + 1; } }
class Main { static void main() { Sys.printi(Helper.f(41)); } }`
	classes, err := minijava.Compile("t.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	e := New(Config{Policy: CompileFirst{}})
	if err := e.VM.Load(classes); err != nil {
		t.Fatal(err)
	}
	if err := e.PrecompileAll(); err != nil {
		t.Fatal(err)
	}
	pre := e.JIT.Translations
	if pre < 2 {
		t.Fatalf("translations = %d", pre)
	}
	m, _ := e.VM.LookupMain()
	if err := e.Run(m); err != nil {
		t.Fatal(err)
	}
	if e.JIT.Translations != pre {
		t.Error("run should not translate anything new")
	}
	if e.VM.Out.String() != "42" {
		t.Fatalf("output %q", e.VM.Out.String())
	}
}

// TestFootprint: JIT footprint exceeds interpreter footprint for the same
// program (Table 1's direction).
func TestFootprint(t *testing.T) {
	src := `
class Main {
	static void main() {
		int s = 0;
		for (int i = 0; i < 100; i = i + 1) { s = s + i; }
		Sys.printi(s);
	}
}`
	ei, _ := runMJ(t, src, InterpretOnly{})
	ej, _ := runMJ(t, src, CompileFirst{})
	if ej.FootprintBytes() <= ei.FootprintBytes() {
		t.Fatalf("JIT footprint %d should exceed interp %d",
			ej.FootprintBytes(), ei.FootprintBytes())
	}
}

// TestEntryValidation rejects bad entry methods.
func TestEntryValidation(t *testing.T) {
	src := `class Main { static void main() { } static int f(int x) { return x; } }`
	classes, _ := minijava.Compile("t.mj", src)
	e := New(Config{})
	if err := e.VM.Load(classes); err != nil {
		t.Fatal(err)
	}
	bad := mustMethod(t, e, "Main", "f")
	if err := e.Run(bad); err == nil {
		t.Fatal("entry with parameters should be rejected")
	}
}
