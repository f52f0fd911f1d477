package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"jrs/internal/analysis"
	"jrs/internal/bytecode"
	"jrs/internal/minijava"
	"jrs/internal/vm"
)

// TestLintWorkloadsGolden pins the full `jrs lint` report over every
// workload: all passes, all eight programs, zero findings, and the exact
// bytes (the report is part of the CLI contract and must stay
// deterministic). Refresh with:
//
//	go test ./internal/harness -run TestLintWorkloadsGolden -update
func TestLintWorkloadsGolden(t *testing.T) {
	report, findings, err := Lint(WorkloadPrograms(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if findings != 0 {
		t.Errorf("workloads must lint clean, got %d findings:\n%s", findings, report)
	}
	again, _, err := Lint(WorkloadPrograms(Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if report != again {
		t.Error("lint report is not deterministic across runs")
	}

	checkGolden(t, "lint.txt", report)
}

// TestLintSeededBugs plants one bug of each kind in an otherwise valid
// program and asserts lint reports each with the right method and pc.
func TestLintSeededBugs(t *testing.T) {
	sigV, _ := bytecode.ParseSignature("()V")
	mk := func(name string, code []bytecode.Instr) *bytecode.Method {
		return &bytecode.Method{Name: name, Sig: sigV, Flags: bytecode.FlagStatic,
			MaxLocals: 1, Code: code}
	}
	c := &bytecode.Class{Name: "Bugs", Methods: []*bytecode.Method{
		mk("leaky", []bytecode.Instr{ // returns holding a monitor
			{Op: bytecode.AConstNull}, {Op: bytecode.MonitorEnter},
			{Op: bytecode.Return}, // @2
		}),
		mk("deadcode", []bytecode.Instr{ // unreachable tail block
			{Op: bytecode.Goto, A: 2},
			{Op: bytecode.Nop}, // @1 dead
			{Op: bytecode.Return},
		}),
		mk("badjoin", []bytecode.Instr{ // arms disagree on stack depth
			{Op: bytecode.IConst}, {Op: bytecode.IfEq, A: 4},
			{Op: bytecode.IConst, A: 7}, {Op: bytecode.Goto, A: 4},
			{Op: bytecode.Return}, // @4 join
		}),
	}}

	diags := linkProgram(t, []*bytecode.Class{c}).Diagnostics
	type want struct {
		method, pass string
		pc           int
		sev          analysis.Severity
	}
	wants := []want{
		{"Bugs.leaky()V", "monitor-balance", 2, analysis.Error},
		{"Bugs.deadcode()V", "reachability", 1, analysis.Warning},
		{"Bugs.badjoin()V", "typecheck", 4, analysis.Error},
	}
	if len(diags) != len(wants) {
		t.Fatalf("findings = %v, want %d", diags, len(wants))
	}
	for i, w := range wants {
		d := diags[i]
		if d.Method != w.method || d.Pass != w.pass || d.PC != w.pc || d.Sev != w.sev {
			t.Errorf("finding %d = %v, want %s %s@%d %s", i, d, w.method, w.pass, w.pc, w.sev)
		}
	}

	report, findings, err := Lint([]LintProgram{{Name: "bugs", Classes: []*bytecode.Class{c}}})
	if err != nil {
		t.Fatal(err)
	}
	if findings != 3 {
		t.Fatalf("findings = %d, want 3\n%s", findings, report)
	}
	if !strings.Contains(report, "bugs      1 classes, 3 methods: 3 finding(s)") {
		t.Errorf("report header wrong:\n%s", report)
	}
	if !strings.Contains(report, "Bugs.leaky()V @2: [monitor-balance] error: return with 1 monitor(s) still held") {
		t.Errorf("report misses the monitor finding:\n%s", report)
	}
}

// TestLintExamples: the shipped MiniJava examples stay lint-clean (they
// are the documented `jrs lint` inputs).
func TestLintExamples(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "minijava")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".mj") {
			continue
		}
		n++
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		classes, err := minijava.Compile(e.Name(), string(src))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		p, err := vm.Link(classes)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if diags := p.Diagnostics; len(diags) != 0 {
			t.Errorf("%s: findings %v", e.Name(), diags)
		}
	}
	if n == 0 {
		t.Fatal("no .mj examples found")
	}
}

// TestLintJSONRoundTrip: the -json form parses back into the exact
// structured report (clean workloads and a program with findings), and
// the text render from the parsed copy matches the original.
func TestLintJSONRoundTrip(t *testing.T) {
	sigV, _ := bytecode.ParseSignature("()V")
	buggy := &bytecode.Class{Name: "Bugs", Methods: []*bytecode.Method{
		{Name: "leaky", Sig: sigV, Flags: bytecode.FlagStatic, MaxLocals: 1,
			Code: []bytecode.Instr{
				{Op: bytecode.AConstNull}, {Op: bytecode.MonitorEnter},
				{Op: bytecode.Return},
			}},
	}}
	progs := append(WorkloadPrograms(helloOpts()),
		LintProgram{Name: "bugs", Classes: []*bytecode.Class{buggy}})

	report, err := BuildLintReport(progs, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if report.Findings == 0 {
		t.Fatal("seeded program produced no findings")
	}
	js, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back LintReport
	if err := json.Unmarshal([]byte(js), &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*report, back) {
		t.Errorf("JSON round trip lost data:\n%+v\nvs\n%+v", *report, back)
	}
	if back.Render() != report.Render() {
		t.Error("text render differs after JSON round trip")
	}
	again, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if js != again {
		t.Error("JSON output is not deterministic")
	}
}
