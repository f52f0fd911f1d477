package ipa_test

import (
	"reflect"
	"testing"

	"jrs/internal/analysis/ipa"
	"jrs/internal/bytecode"
	"jrs/internal/minijava"
	"jrs/internal/vm"
)

// load compiles MiniJava source and runs it through the loader so
// pools are resolved, ids assigned, and vtables built — the Analyze
// precondition.
func load(t *testing.T, src string) []*bytecode.Class {
	t.Helper()
	classes, err := minijava.Compile("test.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(nil, nil)
	if err := v.Load(classes); err != nil {
		t.Fatal(err)
	}
	return classes
}

func method(t *testing.T, classes []*bytecode.Class, cls, name string) *bytecode.Method {
	t.Helper()
	for _, c := range classes {
		if c.Name != cls {
			continue
		}
		for _, m := range c.Methods {
			if m.Name == name {
				return m
			}
		}
	}
	t.Fatalf("method %s.%s not found", cls, name)
	return nil
}

const hierarchySrc = `
class Animal {
	int speak() { return 1; }
	int legs() { return 4; }
}
class Dog extends Animal {
	int speak() { return 2; }
}
class Cat extends Animal {
	int speak() { return 3; }
}
class Bird extends Animal {
	// never instantiated: RTA must not count it as a target
	int speak() { return 9; }
}
class Main {
	static Animal pick(int n) {
		if (n > 0) { return new Dog(); }
		return new Cat();
	}
	static void main() {
		Animal a = pick(1);
		Sys.printi(a.speak());
		Sys.printi(a.legs());
		Dog d = new Dog();
		Sys.printi(d.speak());
	}
}`

func TestCallGraphDevirt(t *testing.T) {
	classes := load(t, hierarchySrc)
	r := ipa.Analyze(classes)

	for _, name := range []string{"Dog", "Cat"} {
		found := false
		for c := range r.Instantiated {
			if c.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("%s should be instantiated", name)
		}
	}
	for c := range r.Instantiated {
		if c.Name == "Bird" {
			t.Error("Bird is never allocated; RTA must exclude it")
		}
	}

	main := method(t, classes, "Main", "main")
	var speakTargets, legsTargets, dogSpeak []*bytecode.Method
	for pc, ins := range main.Code {
		if ins.Op != bytecode.InvokeVirtual {
			continue
		}
		callee := main.Class.Pool.Methods[ins.A].Resolved
		ts := r.Targets[ipa.Site{Method: main.ID, PC: pc}]
		switch {
		case callee.Name == "legs":
			legsTargets = ts
		case callee.Name == "speak" && speakTargets == nil:
			speakTargets = ts
		case callee.Name == "speak":
			dogSpeak = ts
		}
	}
	// a.speak(): Dog and Cat are instantiated, Bird is not -> 2 targets,
	// stays polymorphic (the receiver merges two allocations).
	if len(speakTargets) != 2 {
		t.Errorf("a.speak() targets = %d, want 2", len(speakTargets))
	}
	// a.legs(): only Animal defines it -> CHA singleton, devirtualized.
	if len(legsTargets) != 1 {
		t.Fatalf("a.legs() targets = %d, want 1", len(legsTargets))
	}
	// d.speak(): exact receiver type Dog -> devirtualized to Dog.speak
	// even though the CHA set for Animal.speak has two members.
	if len(dogSpeak) != 1 || dogSpeak[0].Class.Name != "Dog" {
		t.Errorf("d.speak() targets = %v, want the Dog override", dogSpeak)
	}

	found := map[string]bool{}
	for _, f := range r.SortedDevirt() {
		found[f.Target.FullName()] = true
	}
	if !found["Animal.legs()I"] {
		t.Error("CHA-singleton site Animal.legs not devirtualized")
	}
	if !found["Dog.speak()I"] {
		t.Error("exact-type site Dog.speak not devirtualized")
	}
}

const escapeSrc = `
class Counter {
	int n;
	sync void inc() { n = n + 1; }
	sync int get() { return n; }
}
class Box {
	static Counter shared;
}
class Main {
	static Counter leak() {
		Counter c = new Counter();
		c.inc();
		return c;
	}
	static void main() {
		Counter local = new Counter();
		local.inc();
		Sys.printi(local.get());

		Counter stored = new Counter();
		Box.shared = stored;
		stored.inc();

		Counter ret = leak();
		ret.inc();
	}
}`

func TestEscapeElision(t *testing.T) {
	classes := load(t, escapeSrc)
	r := ipa.Analyze(classes)

	elided := map[string]int{}
	for _, f := range r.SortedElideCalls() {
		elided[f.Caller.FullName()]++
	}
	// main: local.inc() and local.get() are elidable; stored.* and
	// ret.* are not (stored into a static / loaded from a return).
	if elided["Main.main()V"] != 2 {
		t.Errorf("main elidable sync sites = %d, want 2 (local.inc, local.get): %v",
			elided["Main.main()V"], r.SortedElideCalls())
	}
	// leak(): its Counter is returned, so c.inc() must NOT be elided.
	if elided["Main.leak()Counter"] != 0 {
		t.Errorf("leak()'s returned Counter wrongly treated as thread-local")
	}

	// Escape census: three Counter allocations, exactly one local.
	locals, escaped := 0, 0
	for site, cls := range r.AllocClass {
		if cls == nil || cls.Name != "Counter" {
			continue
		}
		if r.Escaped[site] {
			escaped++
		} else {
			locals++
		}
	}
	if locals != 1 || escaped != 2 {
		t.Errorf("Counter allocs local=%d escaped=%d, want 1/2", locals, escaped)
	}
}

const spawnSrc = `
class Job {
	int done;
	sync void finish() { done = 1; }
	void run() { this.finish(); }
}
class Main {
	static void main() {
		Job j = new Job();
		int t = Sys.spawn(j);
		Sys.join(t);
		j.finish();
	}
}`

func TestSpawnEscapesAndRunRoot(t *testing.T) {
	classes := load(t, spawnSrc)
	r := ipa.Analyze(classes)

	run := method(t, classes, "Job", "run")
	if !r.Reachable[run] {
		t.Fatal("run()V of a spawned class must be call-graph reachable")
	}
	// The spawned Job is shared with another thread: nothing elidable.
	if n := len(r.ElideCalls); n != 0 {
		t.Errorf("spawned object's sync calls must not be elided, got %d: %v",
			n, r.SortedElideCalls())
	}
	if e := r.Effects[method(t, classes, "Main", "main")]; e&ipa.EffThread == 0 {
		t.Errorf("main effects = %v, want thread bit", e)
	}
}

// monitorClasses hand-assembles a program with monitorenter/monitorexit
// (MiniJava's workload dialect never emits them directly): one method
// locks a fresh object (elidable), the other locks the same object
// after publishing it to a static (not elidable).
func monitorClasses(t *testing.T) []*bytecode.Class {
	t.Helper()
	sigV, err := bytecode.ParseSignature("()V")
	if err != nil {
		t.Fatal(err)
	}
	c := &bytecode.Class{Name: "M", Statics: []bytecode.Field{{Name: "s", Type: bytecode.TRef}}}
	pool := func() *bytecode.Pool { return &c.Pool }
	selfRef := pool().AddClass("M")
	fieldRef := pool().AddField("M", "s")

	local := &bytecode.Method{Name: "local", Sig: sigV, Flags: bytecode.FlagStatic,
		MaxLocals: 1, Code: []bytecode.Instr{
			{Op: bytecode.New, A: selfRef},
			{Op: bytecode.Dup},
			{Op: bytecode.AStore, A: 0},
			{Op: bytecode.MonitorEnter},
			{Op: bytecode.ALoad, A: 0},
			{Op: bytecode.MonitorExit},
			{Op: bytecode.Return},
		}}
	published := &bytecode.Method{Name: "published", Sig: sigV, Flags: bytecode.FlagStatic,
		MaxLocals: 1, Code: []bytecode.Instr{
			{Op: bytecode.New, A: selfRef},
			{Op: bytecode.Dup},
			{Op: bytecode.AStore, A: 0},
			{Op: bytecode.PutStatic, A: fieldRef},
			{Op: bytecode.ALoad, A: 0},
			{Op: bytecode.MonitorEnter},
			{Op: bytecode.ALoad, A: 0},
			{Op: bytecode.MonitorExit},
			{Op: bytecode.Return},
		}}
	main := &bytecode.Method{Name: "main", Sig: sigV, Flags: bytecode.FlagStatic,
		MaxLocals: 1, Code: []bytecode.Instr{
			{Op: bytecode.InvokeStatic, A: pool().AddMethod("M", "local", "()V")},
			{Op: bytecode.InvokeStatic, A: pool().AddMethod("M", "published", "()V")},
			{Op: bytecode.Return},
		}}
	c.Methods = []*bytecode.Method{local, published, main}
	for _, m := range c.Methods {
		m.Class = c
	}
	return []*bytecode.Class{c}
}

func TestMonitorElision(t *testing.T) {
	classes := monitorClasses(t)
	v := vm.New(nil, nil)
	if err := v.Load(classes); err != nil {
		t.Fatal(err)
	}
	r := ipa.Analyze(classes)

	local := method(t, classes, "M", "local")
	published := method(t, classes, "M", "published")
	if !r.ElideMonitors[local] {
		t.Error("local(): monitors on a fresh unescaping object must be elidable")
	}
	if r.ElideMonitors[published] {
		t.Error("published(): object stored to a static, elision unsound")
	}
}

func TestEffects(t *testing.T) {
	classes := load(t, escapeSrc)
	r := ipa.Analyze(classes)

	get := method(t, classes, "Counter", "get")
	if e := r.Effects[get]; e&ipa.EffLock == 0 || e&ipa.EffReadHeap == 0 {
		t.Errorf("sync get() effects = %v, want lock+read", e)
	}
	if e := r.Effects[get]; e.Pure() {
		t.Errorf("synchronized method cannot be pure, got %v", e)
	}
	main := method(t, classes, "Main", "main")
	if e := r.Effects[main]; e&ipa.EffIO == 0 || e&ipa.EffAlloc == 0 || e&ipa.EffWriteHeap == 0 {
		t.Errorf("main effects = %v, want IO+alloc+write", e)
	}
	if got, want := r.Effects[main].String(), "RWALI-"; got != want {
		t.Errorf("main effect string = %q, want %q", got, want)
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	for i := 0; i < 3; i++ {
		a := ipa.Analyze(load(t, hierarchySrc))
		b := ipa.Analyze(load(t, hierarchySrc))
		if !reflect.DeepEqual(a.Summarize(), b.Summarize()) {
			t.Fatalf("summaries differ:\n%+v\n%+v", a.Summarize(), b.Summarize())
		}
		fa, fb := a.SortedDevirt(), b.SortedDevirt()
		if len(fa) != len(fb) {
			t.Fatalf("devirt fact counts differ: %d vs %d", len(fa), len(fb))
		}
		for j := range fa {
			if fa[j].PC != fb[j].PC || fa[j].Target.FullName() != fb[j].Target.FullName() {
				t.Fatalf("devirt fact %d differs: %+v vs %+v", j, fa[j], fb[j])
			}
		}
	}
}

// TestMalformedBodyDegrades: a reachable body the interpreter cannot
// process (here h, whose iadd underflows the stack; structural
// verification admits it) gets no facts and is treated soundly: its
// parameters and allocations escape, its effects are every bit, and an
// object its caller passes in escapes with it. The caller's other
// allocation stays local.
func TestMalformedBodyDegrades(t *testing.T) {
	classes, err := minijava.Compile("test.mj", `
class Obj { int x; }
class Main {
	static void h(Obj o) { }
	static void main() {
		Obj a = new Obj();
		h(a);
		Obj b = new Obj();
		b.x = 1;
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	main, h := method(t, classes, "Main", "main"), method(t, classes, "Main", "h")
	var allocs []int
	for pc, ins := range main.Code {
		if ins.Op == bytecode.New {
			allocs = append(allocs, pc)
		}
	}
	if len(allocs) != 2 {
		t.Fatalf("main allocations at %v, want 2", allocs)
	}
	h.Code = []bytecode.Instr{main.Code[allocs[0]], {Op: bytecode.IAdd}, {Op: bytecode.Pop}, {Op: bytecode.Return}}
	v := vm.New(nil, nil)
	v.Verify = vm.VerifyStructural
	if err := v.Load(classes); err != nil {
		t.Fatal(err)
	}
	r := ipa.Analyze(classes)

	if f := r.Facts(h); f == nil || !f.NoFlow || len(f.Calls) != 0 {
		t.Fatalf("h facts = %+v, want NoFlow with no facts", f)
	}
	if pe := r.ParamEscapes[h]; len(pe) != 1 || !pe[0] {
		t.Errorf("h param escapes = %v, want [true]", pe)
	}
	if s := (ipa.Site{Method: h.ID, PC: 0}); r.AllocClass[s] == nil || !r.Escaped[s] {
		t.Errorf("h's allocation: class %v escaped %v, want Obj and escaped", r.AllocClass[s], r.Escaped[s])
	}
	if got := r.Effects[h].String(); got != "RWALIT" {
		t.Errorf("h effects = %s, want RWALIT", got)
	}
	if got := r.Effects[main].String(); got != "RWALIT" {
		t.Errorf("main effects = %s, want h's folded in (RWALIT)", got)
	}
	if !r.Escaped[ipa.Site{Method: main.ID, PC: allocs[0]}] {
		t.Error("object passed to h must escape")
	}
	if r.Escaped[ipa.Site{Method: main.ID, PC: allocs[1]}] {
		t.Error("object never passed out must stay local")
	}
}
