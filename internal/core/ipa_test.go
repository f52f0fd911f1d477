package core

import (
	"testing"

	"jrs/internal/minijava"
	"jrs/internal/trace"
	"jrs/internal/vm"
)

// ipaSrc mixes everything the whole-program knobs touch: a class
// hierarchy with a polymorphic and an exact-type virtual site, a
// thread-local synchronized counter (elidable), and a shared one
// published through a static (not elidable).
const ipaSrc = `
class Shape {
	int area() { return 0; }
	int name() { return 83; }
}
class Square extends Shape {
	int side;
	int area() { return side * side; }
}
class Circle extends Shape {
	int r;
	int area() { return 3 * r * r; }
}
class Tally {
	int n;
	sync void add(int v) { n = n + v; }
	sync int sum() { return n; }
}
class Reg {
	static Tally global;
}
class Main {
	static void main() {
		Tally t = new Tally();
		Reg.global = new Tally();
		int i = 0;
		while (i < 6) {
			Shape s = new Square();
			if (i > 2) { s = new Circle(); }
			t.add(s.area());
			t.add(s.name());
			Reg.global.add(1);
			i = i + 1;
		}
		Sys.printi(t.sum());
		Sys.printc(10);
		Sys.printi(Reg.global.sum());
		Sys.printc(10);
	}
}`

// linkFor compiles src and links it the way cfg runs it: by
// vm.LinkElided when cfg elides locks, by vm.Link otherwise.
func linkFor(t *testing.T, src string, cfg Config) *vm.Program {
	t.Helper()
	classes, err := minijava.Compile("t.mj", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	link := vm.Link
	if cfg.ElideLocks {
		link = vm.LinkElided
	}
	prog, err := link(classes)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func runIPA(t *testing.T, src string, p Policy, cfg Config) (*Engine, string) {
	t.Helper()
	prog := linkFor(t, src, cfg)
	cfg.Policy = p
	e := New(cfg)
	if err := e.VM.Install(prog); err != nil {
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

// TestIPAKnobsPreserveOutput: with and without Devirt+ElideLocks, in
// both execution modes, the program output is identical.
func TestIPAKnobsPreserveOutput(t *testing.T) {
	for _, p := range []Policy{InterpretOnly{}, CompileFirst{}} {
		_, base := runIPA(t, ipaSrc, p, Config{})
		_, opt := runIPA(t, ipaSrc, p, Config{Devirt: true, ElideLocks: true})
		if base != opt {
			t.Errorf("%T: output changed\nbase: %q\nopt:  %q", p, base, opt)
		}
		if base == "" {
			t.Fatalf("%T: empty output", p)
		}
	}
}

// TestElideLocksReducesMonitorTraffic: the thread-local Tally's 13 sync
// calls are rebound to unsynchronized clones; the published one keeps
// locking. Engine counters and monitor stats must both show it.
func TestElideLocksReducesMonitorTraffic(t *testing.T) {
	eBase, _ := runIPA(t, ipaSrc, CompileFirst{}, Config{})
	eOpt, _ := runIPA(t, ipaSrc, CompileFirst{}, Config{ElideLocks: true})

	base := eBase.VM.Monitors.Stats().Ops()
	opt := eOpt.VM.Monitors.Stats().Ops()
	if opt >= base {
		t.Errorf("lock ops %d -> %d, want a strict reduction", base, opt)
	}
	if opt == 0 {
		t.Error("the escaping Tally must still lock; elision was unsound")
	}
	// t.add / t.sum: 13 dynamic sync calls from 3 static sites.
	if n := eOpt.VM.Program().ElidedSyncSites; n != 3 {
		t.Errorf("ElidedSyncSites = %d, want 3 (t.add x2, t.sum)", n)
	}
	if eBase.VM.Program().ElidedSyncSites != 0 || eBase.IPA != nil {
		t.Error("knobs off must not analyze or rewrite")
	}
}

// TestDevirtReducesIndirection: whole-program facts must strictly lower
// indirect control transfers versus a JIT with local CHA disabled, and
// never be worse than local CHA.
func TestDevirtReducesIndirection(t *testing.T) {
	indirect := func(cfg Config) uint64 {
		c := &trace.Counter{}
		classes, err := minijava.Compile("t.mj", ipaSrc)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = CompileFirst{}
		cfg.Sink = c
		e := New(cfg)
		if err := e.VM.Load(classes); err != nil {
			t.Fatal(err)
		}
		m, err := e.VM.LookupMain()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(m); err != nil {
			t.Fatal(err)
		}
		return c.ByClass(trace.IndirectJump) + c.ByClass(trace.IndirectCall)
	}

	noDevirt := Config{}
	noDevirt.JITOptions.Devirtualize = false
	noDevirt.JITOptions.MaxStackRegs = 16
	noDevirt.JITOptions.BaselineCodegen = true

	baseline := indirect(noDevirt)
	cha := indirect(Config{})
	ipa := indirect(Config{Devirt: true})
	if ipa >= baseline {
		t.Errorf("indirect transfers: nodevirt=%d ipa=%d, want strict reduction", baseline, ipa)
	}
	if ipa > cha {
		t.Errorf("whole-program facts (%d) must not lose to local CHA (%d)", ipa, cha)
	}
}

// TestAOTWithKnobs: PrecompileAll must see the same prepared program as
// Run (clones compiled, rewrites applied once).
func TestAOTWithKnobs(t *testing.T) {
	cfg := Config{Devirt: true, ElideLocks: true}
	e := New(cfg)
	if err := e.VM.Install(linkFor(t, ipaSrc, cfg)); err != nil {
		t.Fatal(err)
	}
	if err := e.PrecompileAll(); err != nil {
		t.Fatal(err)
	}
	m, err := e.VM.LookupMain()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(m); err != nil {
		t.Fatal(err)
	}
	_, want := runIPA(t, ipaSrc, CompileFirst{}, Config{})
	if got := e.VM.Out.String(); got != want {
		t.Errorf("AOT+knobs output %q, want %q", got, want)
	}
}
