package workloads_test

import (
	"strings"
	"testing"

	"jrs/internal/core"
	"jrs/internal/workloads"
)

// runWorkload executes w at scale n under policy p.
func runWorkload(t *testing.T, w workloads.Workload, n int, p core.Policy) (*core.Engine, string) {
	t.Helper()
	e := core.New(core.Config{Policy: p})
	if err := e.VM.Load(w.Classes(n)); err != nil {
		t.Fatalf("%s: load: %v", w.Name, err)
	}
	main, err := e.VM.LookupMain()
	if err != nil {
		t.Fatalf("%s: main: %v", w.Name, err)
	}
	if err := e.Run(main); err != nil {
		t.Fatalf("%s under %s: %v", w.Name, p.Name(), err)
	}
	return e, e.VM.Out.String()
}

// TestWorkloadsAgreeAcrossEngines is the core correctness gate: every
// workload must produce byte-identical output under pure interpretation,
// always-JIT, and mixed threshold execution.
func TestWorkloadsAgreeAcrossEngines(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			_, outI := runWorkload(t, w, w.BenchN, core.InterpretOnly{})
			_, outJ := runWorkload(t, w, w.BenchN, core.CompileFirst{})
			_, outM := runWorkload(t, w, w.BenchN, core.Threshold{N: 5})
			if outI != outJ {
				t.Errorf("interp %q != jit %q", outI, outJ)
			}
			if outI != outM {
				t.Errorf("interp %q != mixed %q", outI, outM)
			}
			if len(strings.TrimSpace(outI)) == 0 {
				t.Errorf("no output")
			}
			t.Logf("%s: %s", w.Name, strings.TrimSpace(outI))
		})
	}
}

// TestWorkloadProperties sanity-checks per-workload behaviours the
// experiments rely on.
func TestWorkloadProperties(t *testing.T) {
	// compress verifies its own round trip.
	_, out := runWorkload(t, mustW(t, "compress"), 0, core.CompileFirst{})
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("compress round-trip failed: %s", out)
	}

	// mtrt must actually run multithreaded and finish all rows.
	e, out := runWorkload(t, mustW(t, "mtrt"), 16, core.CompileFirst{})
	if !strings.Contains(out, "rows=16") {
		t.Errorf("mtrt rows: %s", out)
	}
	if len(e.VM.Threads()) != 3 {
		t.Errorf("mtrt threads = %d, want 3 (main + 2 workers)", len(e.VM.Threads()))
	}
	st := e.VM.Monitors.Stats()
	if st.Enters == 0 {
		t.Error("mtrt produced no monitor activity")
	}

	// hello is tiny: translation should dominate execution under JIT.
	eh, _ := runWorkload(t, mustW(t, "hello"), 0, core.CompileFirst{})
	exec, translate, _ := eh.PhaseInstrs()
	if translate == 0 {
		t.Error("hello: no translation instructions")
	}
	t.Logf("hello: exec=%d translate=%d", exec, translate)
}

func mustW(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	return w
}
