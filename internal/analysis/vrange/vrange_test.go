package vrange_test

import (
	"math"
	"testing"

	"jrs/internal/analysis/ipa"
	"jrs/internal/analysis/vrange"
	"jrs/internal/bytecode"
	"jrs/internal/minijava"
	"jrs/internal/vm"
)

func TestIntervalJoinMeetExtremes(t *testing.T) {
	full := vrange.Full()
	if !full.Contains(math.MinInt64) || !full.Contains(math.MaxInt64) {
		t.Error("Full must contain both int64 extremes")
	}
	lo := vrange.Point(math.MinInt64)
	hi := vrange.Point(math.MaxInt64)
	if j := lo.Join(hi); j != full {
		t.Errorf("Join of extremes = %+v, want Full", j)
	}
	if _, ok := lo.Meet(hi); ok {
		t.Error("Meet of disjoint extremes must be empty")
	}
	if m, ok := full.Meet(vrange.Range(-3, 7)); !ok || m != vrange.Range(-3, 7) {
		t.Errorf("Full meet [-3,7] = %+v ok=%v", m, ok)
	}
	// Join is a hull, never wraps.
	if j := vrange.Range(-10, -5).Join(vrange.Range(5, 10)); j != vrange.Range(-10, 10) {
		t.Errorf("hull join = %+v", j)
	}
}

// TestWideningTermination: any monotone chain of Widen steps changes
// the interval only a bounded number of times (Lo can step to 0 then
// MinInt64, Hi to MaxInt64), so loop-head iteration always terminates.
func TestWideningTermination(t *testing.T) {
	iv := vrange.Point(5)
	changes := 0
	for k := int64(0); k < 100; k++ {
		next := vrange.Range(5-k, 5+k*3)
		w := iv.Widen(next)
		if hull := iv.Join(next); !w.Contains(hull.Lo) || !w.Contains(hull.Hi) {
			t.Fatalf("Widen lost values: %+v widen %+v = %+v", iv, next, w)
		}
		if w != iv {
			changes++
		}
		iv = w
	}
	if changes > 4 {
		t.Errorf("widening chain changed %d times, want <= 4", changes)
	}
	if iv != vrange.Full() {
		t.Errorf("chain with sinking Lo and rising Hi must reach Full, got %+v", iv)
	}
	// The 0-threshold: a non-negative sinking bound pauses at 0 so index
	// lower bounds survive one widening step.
	if w := vrange.Point(8).Widen(vrange.Range(3, 8)); w != vrange.Range(0, 8) {
		t.Errorf("non-negative sink = %+v, want [0,8]", w)
	}
	if w := vrange.Range(0, 8).Widen(vrange.Range(-1, 8)); w != vrange.Range(math.MinInt64, 8) {
		t.Errorf("negative sink = %+v, want [MinInt64,8]", w)
	}
}

// TestIntervalOverflowSafety: arithmetic whose concrete counterpart
// wraps must widen to Full instead of keeping a wrapped (unsound) bound.
func TestIntervalOverflowSafety(t *testing.T) {
	max, min := vrange.Point(math.MaxInt64), vrange.Point(math.MinInt64)
	if r := max.Add(vrange.Point(1)); r != vrange.Full() {
		t.Errorf("MaxInt64+1 = %+v, want Full", r)
	}
	if r := min.Sub(vrange.Point(1)); r != vrange.Full() {
		t.Errorf("MinInt64-1 = %+v, want Full", r)
	}
	if r := max.Mul(vrange.Point(2)); r != vrange.Full() {
		t.Errorf("MaxInt64*2 = %+v, want Full", r)
	}
	if r := min.Neg(); r != vrange.Full() {
		t.Errorf("-MinInt64 = %+v, want Full", r)
	}
	// In-range arithmetic stays tight.
	if r := vrange.Range(-2, 3).Add(vrange.Range(10, 20)); r != vrange.Range(8, 23) {
		t.Errorf("[-2,3]+[10,20] = %+v", r)
	}
	if r := vrange.Range(-2, 3).Mul(vrange.Range(4, 5)); r != vrange.Range(-10, 15) {
		t.Errorf("[-2,3]*[4,5] = %+v", r)
	}
	if r := vrange.Range(1, 4).Sub(vrange.Range(0, 2)); r != vrange.Range(-1, 4) {
		t.Errorf("[1,4]-[0,2] = %+v", r)
	}
}

func TestNullnessJoin(t *testing.T) {
	cases := []struct{ a, b, want vrange.Nullness }{
		{vrange.NonNull, vrange.NonNull, vrange.NonNull},
		{vrange.IsNull, vrange.IsNull, vrange.IsNull},
		{vrange.NonNull, vrange.IsNull, vrange.MaybeNull},
		{vrange.NonNull, vrange.MaybeNull, vrange.MaybeNull},
		{vrange.MaybeNull, vrange.MaybeNull, vrange.MaybeNull},
	}
	for _, c := range cases {
		if got := vrange.JoinNull(c.a, c.b); got != c.want {
			t.Errorf("JoinNull(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// analyzeSrc compiles a MiniJava source and runs the whole-program
// analysis over it, returning the result plus the loaded classes.
func analyzeSrc(t *testing.T, src string) (*vrange.Result, []*bytecode.Class) {
	t.Helper()
	classes, err := minijava.Compile("test.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	v := vm.New(nil, nil)
	v.Verify = vm.VerifyStructural
	if err := v.Load(classes); err != nil {
		t.Fatal(err)
	}
	return vrange.Analyze(v.ClassList, ipa.Analyze(v.ClassList)), v.ClassList
}

// findMethod locates class.method in the loaded set.
func findMethod(t *testing.T, classes []*bytecode.Class, class, method string) *bytecode.Method {
	t.Helper()
	for _, c := range classes {
		if c.Name != class {
			continue
		}
		for _, m := range c.Methods {
			if m.Name == method {
				return m
			}
		}
	}
	t.Fatalf("method %s.%s not found", class, method)
	return nil
}

// TestNullnessThroughSyncBlock: monitorenter dereferences its operand,
// so inside a sync block the locked reference is non-null — field
// accesses there are proven while the monitorenter itself (on a
// maybe-null reference) is not.
func TestNullnessThroughSyncBlock(t *testing.T) {
	r, classes := analyzeSrc(t, `
class Box { int v; }
class Main {
	static Box pick(int n) {
		if (n > 0) { return new Box(); }
		return null;
	}
	static void main() {
		// Two call sites widen pick's argument summary to [0,1], so its
		// return joins both branches and b is genuinely maybe-null.
		Box drop = Main.pick(0);
		Box b = Main.pick(1);
		sync (b) {
			Sys.printi(b.v);
		}
	}
}`)
	m := findMethod(t, classes, "Main", "main")
	var enterPC, getPC = -1, -1
	for pc, ins := range m.Code {
		switch ins.Op {
		case bytecode.MonitorEnter:
			enterPC = pc
		case bytecode.GetField:
			getPC = pc
		}
	}
	if enterPC < 0 || getPC < 0 {
		t.Fatalf("fixture shape: monitorenter=%d getfield=%d", enterPC, getPC)
	}
	if r.NullProvenID(m.ID, enterPC) {
		t.Error("monitorenter on a maybe-null reference must keep its check")
	}
	if !r.NullProvenID(m.ID, getPC) {
		t.Error("getfield inside the sync block must be proven non-null (monitorenter dominates it)")
	}
}

// TestNullnessSpawnedRunRoot: a spawned run() is an analysis root whose
// receiver is non-null (spawn checks it), so `this` dereferences inside
// the thread body are proven even though no analyzed caller invokes it.
func TestNullnessSpawnedRunRoot(t *testing.T) {
	r, classes := analyzeSrc(t, `
class W {
	int[] data;
	W(int n) { data = new int[n]; }
	void run() {
		int s = 0;
		for (int i = 0; i < data.length; i = i + 1) {
			s = s + data[i];
		}
		Sys.printi(s);
	}
}
class Main {
	static void main() {
		int t = Sys.spawn(new W(8));
		Sys.join(t);
	}
}`)
	m := findMethod(t, classes, "W", "run")
	checked, proven := 0, 0
	for pc, ins := range m.Code {
		if ins.Op == bytecode.GetField {
			checked++
			if r.NullProvenID(m.ID, pc) {
				proven++
			}
		}
	}
	if checked == 0 {
		t.Fatal("fixture shape: no getfield in W.run")
	}
	if proven != checked {
		t.Errorf("spawned-root this-dereferences proven %d/%d, want all", proven, checked)
	}
}

// TestBoundsProofInterprocedural: an index bounded by a callee's
// argument-length summary is proven across the call.
func TestBoundsProofInterprocedural(t *testing.T) {
	r, classes := analyzeSrc(t, `
class Main {
	static int sum(int[] a) {
		int s = 0;
		for (int i = 0; i < a.length; i = i + 1) { s = s + a[i]; }
		return s;
	}
	static void main() {
		int[] xs = new int[12];
		Sys.printi(Main.sum(xs));
	}
}`)
	m := findMethod(t, classes, "Main", "sum")
	for pc, ins := range m.Code {
		if ins.Op == bytecode.IALoad && !r.BoundsProvenID(m.ID, pc) {
			t.Errorf("a[i] under i < a.length not proven at pc %d", pc)
		}
	}
	c := r.Summarize()
	if c.BoundsProven == 0 {
		t.Fatalf("census proved nothing: %+v", c)
	}
}

// TestRefutedEdgesRecordNoSites: code the analysis proves unreachable
// records no verdict. Two shapes: the null arm of an ifnonnull on a
// reference already dereferenced (branch refinement refutes the edge),
// and everything after a call whose only callee never returns.
func TestRefutedEdgesRecordNoSites(t *testing.T) {
	classes, err := minijava.Compile("test.mj", `
class Box { int v; }
class Main {
	static void use(Box x) {
		Sys.printi(x.v);
		if (x == null) {
			Sys.printi(x.v);
			int[] a = new int[2];
			a[1] = 3;
		}
		Sys.printi(x.v);
	}
	static void spin() {
		while (0 == 0) { }
	}
	static void main() {
		Main.use(new Box());
		Main.use(null);
		Main.spin();
		Box b = new Box();
		int[] c = new int[4];
		c[2] = b.v;
	}
}`)
	if err != nil {
		t.Fatal(err)
	}
	// MiniJava compiles x == null to aload; aconst_null; if_acmpne.
	// Rewrite it in place to aload; nop; ifnonnull, the form whose null
	// edge branch refinement drops.
	var use *bytecode.Method
	for _, c := range classes {
		for _, m := range c.Methods {
			if c.Name == "Main" && m.Name == "use" {
				use = m
			}
		}
	}
	armStart, armEnd := -1, -1
	for pc, ins := range use.Code {
		if ins.Op == bytecode.AConstNull && use.Code[pc+1].Op == bytecode.IfACmpNe {
			use.Code[pc] = bytecode.Instr{Op: bytecode.Nop}
			use.Code[pc+1] = bytecode.Instr{Op: bytecode.IfNonNull, A: use.Code[pc+1].A}
			armStart, armEnd = pc+2, int(use.Code[pc+1].A)
		}
	}
	if armStart < 0 {
		t.Fatal("fixture shape: no x == null comparison in Main.use")
	}
	v := vm.New(nil, nil)
	v.Verify = vm.VerifyStructural
	if err := v.Load(classes); err != nil {
		t.Fatal(err)
	}
	r := vrange.Analyze(v.ClassList, ipa.Analyze(v.ClassList))

	// checkSite reports whether the instruction carries a bounds or null
	// check the analysis records.
	checkSite := func(op bytecode.Op) bool {
		switch op {
		case bytecode.GetField, bytecode.PutField, bytecode.IAStore, bytecode.IALoad,
			bytecode.InvokeVirtual, bytecode.ArrayLength:
			return true
		}
		return false
	}
	recorded := func(m *bytecode.Method, pc int) bool {
		site := ipa.Site{Method: m.ID, PC: pc}
		_, b := r.Bounds[site]
		_, n := r.Null[site]
		return b || n
	}
	expect := func(m *bytecode.Method, from, to int, want bool) {
		t.Helper()
		n := 0
		for pc := from; pc < to; pc++ {
			if !checkSite(m.Code[pc].Op) {
				continue
			}
			n++
			if got := recorded(m, pc); got != want {
				t.Errorf("%s @%d %s: recorded=%v, want %v", m.FullName(), pc, m.Code[pc].Op, got, want)
			}
		}
		if n == 0 {
			t.Errorf("fixture shape: no check site in %s [%d,%d)", m.FullName(), from, to)
		}
	}
	expect(use, 0, armStart, true)
	expect(use, armStart, armEnd, false)
	expect(use, armEnd, len(use.Code), true)

	main := findMethod(t, v.ClassList, "Main", "main")
	spinAt := -1
	for pc, ins := range main.Code {
		if ins.Op == bytecode.InvokeStatic && main.Class.Pool.Methods[ins.A].Resolved.Name == "spin" {
			spinAt = pc
		}
	}
	if spinAt < 0 {
		t.Fatal("fixture shape: no call to spin in Main.main")
	}
	expect(main, spinAt+1, len(main.Code), false)
}

// TestSelfRecursionWidensOwnEntry: a self-recursive call widens the
// method's own entry summary while that method is being solved. The
// fixpoint must solve f again with the widened i (which reaches 3 on
// the outer call and 0 on the innermost), so a[3 - i] on a 2-element
// array stays unproven: i = 0 indexes a[3].
func TestSelfRecursionWidensOwnEntry(t *testing.T) {
	r, classes := analyzeSrc(t, `
class Main {
	static int f(int[] a, int i) {
		int s = a[3 - i];
		if (i > 0) { s = s + Main.f(a, i - 1); }
		return s;
	}
	static void main() {
		int[] a = new int[2];
		Sys.printi(Main.f(a, 3));
	}
}`)
	m := findMethod(t, classes, "Main", "f")
	n := 0
	for pc, ins := range m.Code {
		if ins.Op != bytecode.IALoad {
			continue
		}
		n++
		if r.BoundsProvenID(m.ID, pc) {
			t.Errorf("a[3 - i] at pc %d proven, but i = 0 indexes a[3] of a 2-element array", pc)
		}
	}
	if n == 0 {
		t.Fatal("fixture shape: no iaload in Main.f")
	}
}
