package harness

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"jrs/internal/analysis/vrange"
	"jrs/internal/bytecode"
	"jrs/internal/core"
	"jrs/internal/minijava"
	"jrs/internal/workloads"
)

// TestBoundsFixtureCensus pins the bounds.mj check-site census: the
// straight i < a.length loops are proven, the permutation-indexed load
// and the field-reload loop in Blur.<init> are kept. The exact tallies
// guard both analysis precision (proven must not drop) and soundness
// paranoia (the indirect index must never become "proven").
func TestBoundsFixtureCensus(t *testing.T) {
	classes := compileExample(t, "bounds.mj")
	cc := checkCensus(linkProgram(t, classes).Ranges())
	want := vrange.Census{Methods: cc.Census.Methods,
		BoundsSites: 8, BoundsProven: 6, NullSites: 15, NullProven: 11}
	if cc.Census != want {
		t.Errorf("census = %+v, want %+v", cc.Census, want)
	}
	if kept := cc.Census.BoundsSites - cc.Census.BoundsProven; kept < 1 {
		t.Errorf("kept bounds sites = %d, want >= 1 (the data[perm[i]] access)", kept)
	}
	if cc.Census.BoundsProven < 1 {
		t.Error("no proven bounds site — the fixture must pin at least one elision")
	}

	// Main.main has exactly two iaload sites: perm[i] (proven) and
	// data[j] with j loaded from perm (must stay). Pin that split.
	proven := map[string]bool{}
	for _, s := range cc.Proven {
		if s.Kind == "bounds" {
			proven[fmt.Sprintf("%s@%d", s.Method, s.PC)] = true
		}
	}
	var mainLoads, mainProven int
	for _, c := range classes {
		if c.Name != "Main" {
			continue
		}
		for _, m := range c.Methods {
			if m.Name != "main" {
				continue
			}
			for pc, ins := range m.Code {
				if ins.Op == bytecode.IALoad {
					mainLoads++
					if proven[fmt.Sprintf("%s@%d", m.FullName(), pc)] {
						mainProven++
					}
				}
			}
		}
	}
	if mainLoads != 2 || mainProven != 1 {
		t.Errorf("Main.main iaload sites: %d proven of %d, want exactly 1 of 2 (data[perm[i]] must keep its check)", mainProven, mainLoads)
	}
}

// boundsWorkload wraps the bounds fixture as a runnable workload.
func boundsWorkload(t testing.TB) workloads.Workload {
	t.Helper()
	w := exampleWorkload(t, "bounds.mj")
	w.Multithreaded = false
	return w
}

// TestBoundsFixtureElision: the fixture actually elides checks at
// runtime under every mode, the oracle re-validates them, and nothing
// fires — the non-vacuity half of the bounds.mj pin.
func TestBoundsFixtureElision(t *testing.T) {
	w := boundsWorkload(t)
	for _, mode := range []Mode{ModeInterp, ModeJIT, ModeAOT} {
		ec, err := CheckElideWorkload(context.Background(), w, 1, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if err := ec.Err(); err != nil {
			t.Fatal(err)
		}
		if ec.Elided == 0 {
			t.Errorf("%s: no checks elided at runtime", mode)
		}
		if ec.Runtime == 0 {
			t.Errorf("%s: oracle saw no validations", mode)
		}
	}
}

// trapProgram compiles an inline source and wraps it as a workload.
func trapProgram(t *testing.T, name, src string) workloads.Workload {
	t.Helper()
	if _, err := minijava.Compile(name, src); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return workloads.Workload{Name: name, Source: src, DefaultN: 1, BenchN: 1}
}

// TestTrapMessagesCrossMode pins the unified runtime-trap text: an
// out-of-bounds access and a null dereference must throw the exact
// same exception string under the interpreter, the JIT, and AOT.
func TestTrapMessagesCrossMode(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"oob", `
class Main {
	static void main() {
		int[] a = new int[3];
		int j = 0;
		for (int i = 0; i < a.length; i = i + 1) { j = j + 2; }
		Sys.printi(a[j]);
	}
}`, "ArrayIndexOutOfBounds: index 6 length 3"},
		{"nullref", `
class Box { int v; }
class Main {
	static Box pick(int n) {
		Box b = new Box();
		if (n > 0) { return b; }
		return null;
	}
	static void main() {
		Box b = Main.pick(0);
		Sys.printi(b.v);
	}
}`, "NullPointer: null dereference"},
	}
	for _, tc := range cases {
		w := trapProgram(t, tc.name, tc.src)
		for _, mode := range []Mode{ModeInterp, ModeJIT, ModeAOT} {
			_, err := RunCtx(context.Background(), w, 1, mode, core.Config{})
			if err == nil {
				t.Fatalf("%s/%s: expected a trap, ran clean", tc.name, mode)
			}
			// The harness prefixes "name (mode): "; the trap text itself
			// must be mode-independent.
			want := fmt.Sprintf("%s (%s): %s", tc.name, mode, tc.want)
			if got := err.Error(); got != want {
				t.Errorf("%s/%s: trap = %q, want %q", tc.name, mode, got, want)
			}
		}
	}
}

// FuzzCheckElisionSound fuzzes the elision subsumption invariant over
// generated array programs: whatever the shapes, a run with proven
// checks elided must behave exactly like the fully-checked run — same
// output, same trap (if any) — and no elided site may ever fire.
func FuzzCheckElisionSound(f *testing.F) {
	f.Add(uint8(8), uint8(1), int16(0), uint8(0))
	f.Add(uint8(16), uint8(3), int16(20), uint8(1)) // oob tail access
	f.Add(uint8(1), uint8(7), int16(-1), uint8(3))
	f.Fuzz(func(t *testing.T, n, stride uint8, tail int16, flags uint8) {
		size := int(n)%32 + 1
		step := int(stride)%7 + 1
		idx := int(tail) % 64
		src := fmt.Sprintf(`
class Main {
	static int sum(int[] a, int step) {
		int s = 0;
		for (int i = 0; i < a.length; i = i + step) { s = s + a[i]; }
		return s;
	}
	static void main() {
		int[] a = new int[%d];
		for (int i = 0; i < a.length; i = i + 1) { a[i] = i * 3; }
		int s = Main.sum(a, %d);
		if ((%d & 1) == 1) { s = s + a[%d]; }
		Sys.printi(s);
	}
}`, size, step, flags, idx)
		classes, err := minijava.Compile("fuzz.mj", src)
		if err != nil {
			t.Skip("generator produced an uncompilable shape")
		}
		_ = classes
		w := workloads.Workload{Name: "fuzz", Source: src, DefaultN: 1, BenchN: 1}
		for _, mode := range []Mode{ModeInterp, ModeJIT} {
			base, berr := RunCtx(context.Background(), w, 1, mode, core.Config{})
			oracle := newCheckOracle()
			cfg := core.Config{ElideBounds: true, ElideNull: true, CheckHook: oracle}
			elided, eerr := RunCtx(context.Background(), w, 1, mode, cfg)
			if (berr == nil) != (eerr == nil) {
				t.Fatalf("%s: trap behavior diverged: base=%v elided=%v", mode, berr, eerr)
			}
			if berr != nil && berr.Error() != eerr.Error() {
				t.Fatalf("%s: trap text diverged: base=%q elided=%q", mode, berr, eerr)
			}
			if berr == nil && base.VM.Out.String() != elided.VM.Out.String() {
				t.Fatalf("%s: output diverged:\n%q\nvs\n%q", mode, base.VM.Out.String(), elided.VM.Out.String())
			}
			if vs := oracle.Violations(); len(vs) > 0 {
				t.Fatalf("%s: elided check(s) would have fired: %v", mode, vs)
			}
		}
	})
}

// checkFixturePrograms: the census fixtures for the analyze/lint goldens.
func checkFixturePrograms(t *testing.T) []LintProgram {
	t.Helper()
	progs := []LintProgram{{Name: "bounds", Classes: compileExample(t, "bounds.mj")}}
	return append(progs, WorkloadPrograms(helloOpts("compress"))...)
}

// TestCheckLintGolden pins the `jrs lint -checkelide` census block over
// the bounds fixture plus a real workload. Refresh with -update.
func TestCheckLintGolden(t *testing.T) {
	report, err := BuildLintReport(checkFixturePrograms(t), false, true)
	if err != nil {
		t.Fatal(err)
	}
	if report.Findings != 0 {
		t.Errorf("checks census must not count as findings, got %d", report.Findings)
	}
	for _, p := range report.Programs {
		if p.Checks == nil || p.Checks.BoundsSites == 0 {
			t.Errorf("%s: missing checks census", p.Name)
		}
	}
	js, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js, `"checks"`) || !strings.Contains(js, `"boundsProven"`) {
		t.Errorf("JSON lint report missing checks census:\n%s", js)
	}
	checkGolden(t, "lint-checks.txt", report.Render())
}

// TestCheckAnalyzeGolden pins the `jrs analyze -checkelide` census
// extension over the same programs. Refresh with -update.
func TestCheckAnalyzeGolden(t *testing.T) {
	res, err := AnalyzePrograms(checkFixturePrograms(t), false, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		if row.Checks == nil {
			t.Fatalf("row %d (%s) missing checks census", i, row.Workload)
		}
	}
	checkGolden(t, "analyze-checks.txt", res.Render())
}

// TestCheckAnalyzeAllGolden pins every proven check site of all eight
// workloads at their default scale (`jrs analyze -checkelide`), so a
// change to the value-range solver that moves any per-site verdict
// shows up here. Refresh with -update.
func TestCheckAnalyzeAllGolden(t *testing.T) {
	res, err := Analyze(Options{Checks: true})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "analyze-checks-all.txt", res.Render())
}
