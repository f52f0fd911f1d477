package harness

import (
	"fmt"
	"strings"
	"testing"

	"jrs/internal/analysis/ipa"
	"jrs/internal/analysis/vrange"
	"jrs/internal/bytecode"
	"jrs/internal/vm"
	"jrs/internal/workloads"
)

// vrangeProgram is one workload linked at its default scale with its
// ipa result, the input vrange.Analyze takes.
type vrangeProgram struct {
	name    string
	classes []*bytecode.Class
	ipa     *ipa.Result
}

// vrangePrograms links all eight workloads the way `jrs analyze` does.
func vrangePrograms(tb testing.TB) []vrangeProgram {
	tb.Helper()
	var progs []vrangeProgram
	for _, w := range workloads.All() {
		v := vm.New(nil, nil)
		if err := v.Load(w.Classes(w.DefaultN)); err != nil {
			tb.Fatalf("%s: %v", w.Name, err)
		}
		progs = append(progs, vrangeProgram{w.Name, v.ClassList, ipa.Analyze(v.ClassList)})
	}
	return progs
}

// TestVRangeCountersGolden pins the value-range fixpoint's work counters
// for the eight workloads, so a change to how the fixpoint schedules
// its solves shows up as changed integers. Every program must converge
// before the round cap, which would silently top every summary.
// Refresh with:
//
//	go test ./internal/harness -run TestVRangeCountersGolden -update
func TestVRangeCountersGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range vrangePrograms(t) {
		r := vrange.Analyze(p.classes, p.ipa)
		w := r.Work
		if w.Rounds >= vrange.MaxRounds {
			t.Errorf("%s: %d rounds, the cap is %d", p.name, w.Rounds, vrange.MaxRounds)
		}
		fmt.Fprintf(&b, "%s: methods=%d rounds=%d solves=%d inner=%d transfers=%d steps=%d\n",
			p.name, r.Summarize().Methods, w.Rounds, w.Solves, w.Inner, w.Transfers, w.Steps)
	}
	checkGolden(t, "vrange-counters.txt", b.String())
}

// BenchmarkVRange times the value-range analysis alone over the eight
// workloads at their default scale; compiling, linking and ipa are
// outside the timer.
//
//	go test ./internal/harness -run '^$' -bench '^BenchmarkVRange$' -benchmem -count 10
func BenchmarkVRange(b *testing.B) {
	progs := vrangePrograms(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			vrange.Analyze(p.classes, p.ipa)
		}
	}
}
