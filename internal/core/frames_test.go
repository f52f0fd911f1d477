package core

import (
	"fmt"
	"runtime"
	"testing"

	"jrs/internal/minijava"
)

// runModes runs src under the interpreter, the JIT, AOT (every method
// precompiled) and two tiered policies, one of which interprets each
// method for its first invocations, so a stack depth is held first by an
// interpreted frame and later by a native one. It returns each mode's
// program output and the number of monitor entries that blocked.
func runModes(t *testing.T, src string, seed uint64) (outs map[string]string, blocks map[string]uint64) {
	t.Helper()
	classes, err := minijava.Compile("t.mj", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	modes := []struct {
		name string
		pol  Policy
		aot  bool
	}{
		{"interp", InterpretOnly{}, false},
		{"jit", CompileFirst{}, false},
		{"aot", CompileFirst{}, true},
		{"tiered-0-4", Tiered{N1: 0, N2: 4}, false},
		{"tiered-3-9", Tiered{N1: 3, N2: 9}, false},
	}
	outs, blocks = map[string]string{}, map[string]uint64{}
	for _, md := range modes {
		e := New(Config{Policy: md.pol, SchedSeed: seed})
		if err := e.VM.Load(classes); err != nil {
			t.Fatalf("%s: load: %v", md.name, err)
		}
		if md.aot {
			if err := e.PrecompileAll(); err != nil {
				t.Fatalf("%s: precompile: %v", md.name, err)
			}
		}
		m, err := e.VM.LookupMain()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(m); err != nil {
			t.Fatalf("%s: run: %v", md.name, err)
		}
		outs[md.name] = e.VM.Out.String()
		blocks[md.name] = e.VM.Monitors.Stats().BlockEvents
	}
	return outs, blocks
}

// sameOutputs fails unless every mode printed want.
func sameOutputs(t *testing.T, outs map[string]string, want string) {
	t.Helper()
	for name, out := range outs {
		if out != want {
			t.Errorf("%s output %q, want %q", name, out, want)
		}
	}
}

// TestCallDepthDifferential: the call depth rises and falls through
// methods with different local counts, integer and float arguments and
// instance receivers, so every depth is entered in turn by callees with
// fewer and with more locals than the frame last held there. Every mode
// must print the same values.
func TestCallDepthDifferential(t *testing.T) {
	src := `
class Cell {
	int v;
	Cell(int k) { v = k; }
	int scale(int a, float f) {
		float g = f * 2.0;
		int r = a + v;
		if (g > 3.0) { r = r + 1; }
		return r;
	}
}
class Main {
	static int leaf(int a) { return a * 3 + 1; }
	static float mix(float x, int k, float y) {
		float s = x + y;
		for (int i = 0; i < k; i = i + 1) { s = s * 0.5 + 1.0; }
		return s;
	}
	static int wide(int a, int b) {
		int c = a + b;
		int d = c * 2;
		int e = d - a;
		int f = e ^ b;
		int g = f + c;
		int h = g * 3;
		int i = h - d;
		int j = i + e;
		return leaf(j) + a + b + c + d + e + f + g + h + i + j;
	}
	static int narrow(int n) { return leaf(n) + wide(n, n + 1); }
	static int deep(int n, int k) {
		if (n <= 0) { return leaf(k); }
		int t = k + n;
		int u = 0;
		if (n % 2 == 0) { u = wide(t, n); } else { u = narrow(t); }
		return deep(n - 1, t) + u;
	}
	static int rise(int n, Cell c) {
		if (n <= 0) { return c.scale(n, 1.5); }
		int a = rise(n - 1, c);
		int b = c.scale(a % 97, 0.75);
		float f = mix(1.0, n % 4, 2.5);
		if (f > 2.0) { b = b + 2; }
		return a + b;
	}
	static void main() {
		Cell c = new Cell(5);
		int total = 0;
		for (int r = 0; r < 12; r = r + 1) {
			total = total + deep(r % 7, r) + narrow(r) + rise(r % 5, c);
			Sys.printi(total);
			Sys.printc(32);
		}
		Sys.printi(wide(3, 4));
		Sys.printc(10);
	}
}`
	outs, _ := runModes(t, src, 0)
	want := outs["interp"]
	if want == "" {
		t.Fatal("interp printed nothing")
	}
	sameOutputs(t, outs, want)
}

// TestBlockedInvokeArgsDifferential: two threads call a static
// synchronized method with distinct arguments. The holder yields inside
// it, so the other thread's invoke blocks at entry and waits with its
// arguments pending while the holder makes further calls with other
// arguments. Each contribution depends on the caller's own arguments
// only, so every mode and every seeded schedule prints the same sums.
func TestBlockedInvokeArgsDifferential(t *testing.T) {
	src := `
class Acc {
	static int total;
	static int calls;
	static sync int add(int who, int v, int w) {
		int t = total;
		Sys.yield();
		total = t + who * v + w;
		calls = calls + 1;
		return who * v + w;
	}
	static int noise(int a, int b, int c, int d) { return a * b + c * d; }
}
class Worker {
	int id;
	int sum;
	int junk;
	Worker(int k) { id = k; }
	void run() {
		for (int i = 0; i < 40; i = i + 1) {
			sum = sum + Acc.add(id, i, id * 7 + i);
			junk = junk + Acc.noise(i, id, 1000 + i, 3);
		}
	}
}
class Main {
	static void main() {
		Worker a = new Worker(1);
		Worker b = new Worker(2);
		int ta = Sys.spawn(a);
		int tb = Sys.spawn(b);
		Sys.join(ta);
		Sys.join(tb);
		Sys.printi(Acc.total); Sys.printc(32);
		Sys.printi(Acc.calls); Sys.printc(32);
		Sys.printi(a.sum); Sys.printc(32);
		Sys.printi(b.sum); Sys.printc(32);
		Sys.printi(a.junk + b.junk); Sys.printc(10);
	}
}`
	// Worker k adds sum_{i<40} (k*i + 7k + i) = 1060k + 780 to total,
	// and noise sums to 780k + 122340 per worker.
	const want = "4740 80 1840 2900 247020\n"
	for _, seed := range []uint64{0, 1, 7, 42} {
		outs, blocks := runModes(t, src, seed)
		sameOutputs(t, outs, want)
		for name, n := range blocks {
			if n == 0 {
				t.Errorf("seed %d %s: no invoke blocked at entry", seed, name)
			}
		}
	}
}

// callLoop is a program making n calls at constant depth: main calls
// step, which calls leaf, with integer and float arguments.
func callLoop(n int) string {
	return fmt.Sprintf(`
class Main {
	static int leaf(int a, float f) { return a + 1; }
	static int step(int a, int b) { return leaf(a ^ b, 0.5); }
	static void main() {
		int s = 0;
		for (int i = 0; i < %d; i = i + 1) { s = step(s, i); }
		Sys.printi(s);
	}
}`, n)
}

// TestCallsAllocateNothing: a simulated call and return allocate nothing
// on the host, so the mallocs of a run do not grow with its call count.
// Each mode runs a loop of n and of 4n calls; the longer run may malloc
// only a small fixed slack more than the shorter one.
func TestCallsAllocateNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine under a malloc count")
	}
	const n, slack = 2000, 16
	for _, p := range []Policy{InterpretOnly{}, CompileFirst{}, Tiered{N1: 3, N2: 9}} {
		mallocs := func(calls int) uint64 {
			classes, err := minijava.Compile("t.mj", callLoop(calls))
			if err != nil {
				t.Fatal(err)
			}
			e := New(Config{Policy: p})
			if err := e.VM.Load(classes); err != nil {
				t.Fatal(err)
			}
			m, err := e.VM.LookupMain()
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := e.Run(m); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.Mallocs - before.Mallocs
		}
		short, long := mallocs(n), mallocs(4*n)
		if long > short+slack {
			t.Errorf("%s: %d calls malloc %d times, %d calls %d times (%.2f per extra call)",
				p.Name(), 2*n, short, 8*n, long, float64(long-short)/float64(6*n))
		}
	}
}
