// Package jrs's top-level benchmarks regenerate every table and figure of
// the paper, one testing.B benchmark per artifact, at each workload's
// reduced benchmark scale (pass -scale via JRS_FULL=1 to use the full s1
// defaults).
//
//	go test -bench=. -benchmem
//
// Each benchmark reports experiment-specific metrics (miss rates,
// misprediction rates, IPC, speedups) via b.ReportMetric so `benchstat`
// can track the reproduction's shape over time.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"

	"jrs/internal/core"
	"jrs/internal/harness"
	"jrs/internal/harness/dist"
	"jrs/internal/jit/codecache"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

var (
	benchParallel = flag.Int("parallel", 0, "workers for BenchmarkGridParallel (0 = GOMAXPROCS)")
	benchCachedir = flag.String("cachedir", "", "result-cache directory for the grid benchmarks")
)

func benchOpts() harness.Options {
	return harness.Options{Quick: os.Getenv("JRS_FULL") == ""}
}

// benchGrid regenerates the full experiment grid on a runner with the
// given worker count. Compare BenchmarkGridSerial vs
// BenchmarkGridParallel (e.g. with benchstat) for the parallel speedup;
// on a >=4-core machine the parallel run should be >=2x faster.
func benchGrid(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		r := &harness.Runner{Workers: workers}
		if *benchCachedir != "" {
			c, err := harness.OpenResultCache(*benchCachedir)
			if err != nil {
				b.Fatal(err)
			}
			r.Cache = c
		}
		if _, err := harness.RunAllWith(benchOpts(), r, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Simulated()), "cells-simulated/op")
		b.ReportMetric(float64(r.CacheHits()), "cache-hits/op")
	}
	b.StopTimer()
	b.ReportMetric(translateProbe(b, nil), "db-translate-instrs")
}

// translateProbe runs the db workload under the JIT against cc (nil =
// no shared cache) and returns its translate-phase instruction count —
// the per-op number the BENCH log tracks for the off-vs-warm comparison.
func translateProbe(b *testing.B, cc *codecache.Cache) float64 {
	w, ok := workloads.ByName("db")
	if !ok {
		b.Fatal("unknown workload db")
	}
	e, err := harness.RunCtx(context.Background(), w, w.BenchN, harness.ModeJIT, core.Config{CodeCache: cc})
	if err != nil {
		b.Fatal(err)
	}
	_, tr, _ := e.PhaseInstrs()
	return float64(tr)
}

// BenchmarkGridSerial regenerates every figure and table on one worker.
func BenchmarkGridSerial(b *testing.B) { benchGrid(b, 1) }

// BenchmarkGridParallel regenerates every figure and table on -parallel
// workers (default GOMAXPROCS).
func BenchmarkGridParallel(b *testing.B) { benchGrid(b, *benchParallel) }

// benchGridCodeCache regenerates the grid with a process-wide shared
// translation cache: one untimed pass warms it, then every timed pass
// serves all translations from it (the persistent-cache steady state).
// Compare against BenchmarkGridSerial/Parallel for the wall-clock the
// translate phase was costing.
func benchGridCodeCache(b *testing.B, workers int) {
	cc := codecache.NewMemory()
	harness.SetCodeCache(cc)
	defer harness.SetCodeCache(nil)
	if _, err := harness.RunAllWith(benchOpts(), &harness.Runner{Workers: workers}, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := &harness.Runner{Workers: workers, CodeCache: cc}
		if _, err := harness.RunAllWith(benchOpts(), r, nil); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Simulated()), "cells-simulated/op")
	}
	b.StopTimer()
	s := cc.Stats()
	b.ReportMetric(float64(s.Hits)/float64(b.N), "cc-hits/op")
	b.ReportMetric(float64(s.CodeBytes)/float64(b.N), "cc-code-bytes/op")
	b.ReportMetric(translateProbe(b, cc), "db-translate-instrs")
}

// BenchmarkGridDist regenerates every figure and table through the
// distributed runner: a loopback jrsd coordinator plus -parallel
// in-process workers, results merged over the wire. Compare against
// BenchmarkGridParallel (same worker count, shared memory) for the
// framing/lease/commit overhead of distribution on one machine.
func BenchmarkGridDist(b *testing.B) {
	workers := *benchParallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	grid := dist.GridSpec{Experiments: []string{"all"}, Opts: dist.SpecOf(benchOpts())}
	for i := 0; i < b.N; i++ {
		c := dist.NewCoordinator(dist.Config{})
		addr, err := c.Start("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for n := 0; n < workers; n++ {
			w := &dist.Worker{
				Name: fmt.Sprintf("bench-w%d", n),
				Dial: func() (net.Conn, error) { return net.Dial("tcp", addr) },
			}
			wg.Add(1)
			go func() { defer wg.Done(); w.Run(ctx) }()
		}
		out, err := dist.Submit(addr, grid, 0)
		if err != nil {
			b.Fatal(err)
		}
		if out.ExitCode != 0 {
			b.Fatalf("dist grid: exit %d, err %q", out.ExitCode, out.ErrMsg)
		}
		b.ReportMetric(float64(c.Committed()), "cells-committed/op")
		cancel()
		c.Stop()
		wg.Wait()
	}
}

// BenchmarkGridSerialCodeCache is BenchmarkGridSerial over a warm shared
// translation cache.
func BenchmarkGridSerialCodeCache(b *testing.B) { benchGridCodeCache(b, 1) }

// BenchmarkGridParallelCodeCache is BenchmarkGridParallel over a warm
// shared translation cache: all engines of all concurrent cells share it.
func BenchmarkGridParallelCodeCache(b *testing.B) { benchGridCodeCache(b, *benchParallel) }

// runAs runs the registered experiment name at the benchmark scale and
// returns its result as T.
func runAs[T harness.Renderer](b *testing.B, name string) T {
	b.Helper()
	e, ok := harness.Lookup(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	res, err := e.Run(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return res.(T)
}

// BenchmarkFig1 regenerates the translate/execute breakdown and oracle.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Fig1Result](b, "fig1")
		var saving float64
		for _, row := range r.Rows {
			if row.Workload == "hello" {
				saving = row.OptSaving()
			}
		}
		b.ReportMetric(saving, "hello-opt-saving")
	}
}

// BenchmarkTable1 regenerates the memory-footprint comparison.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Table1Result](b, "table1")
		var sum float64
		for _, row := range r.Rows {
			sum += row.Overhead()
		}
		b.ReportMetric(sum/float64(len(r.Rows)), "mean-jit-mem-overhead")
	}
}

// BenchmarkFig2 regenerates the instruction-mix study.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Fig2Result](b, "fig2")
		b.ReportMetric(r.InterpMemExcess(), "interp-mem-excess")
		b.ReportMetric(r.IndirectGap(), "indirect-gap")
	}
}

// BenchmarkTable2 regenerates the branch-prediction study.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Table2Result](b, "table2")
		minI, _ := r.GshareAccuracy(harness.ModeInterp)
		minJ, _ := r.GshareAccuracy(harness.ModeJIT)
		b.ReportMetric(minI, "gshare-acc-interp-min")
		b.ReportMetric(minJ, "gshare-acc-jit-min")
	}
}

// BenchmarkTable3 regenerates the cache reference/miss table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Table3Result](b, "table3")
		var dFrac float64
		var n int
		for _, ri := range r.ModeRows(harness.ModeInterp) {
			for _, rj := range r.ModeRows(harness.ModeJIT) {
				if ri.Workload == rj.Workload {
					dFrac += float64(rj.D.Refs()) / float64(ri.D.Refs())
					n++
				}
			}
		}
		b.ReportMetric(dFrac/float64(n), "jit-dref-fraction")
	}
}

// BenchmarkFig3 regenerates the write-miss share sweep.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Fig3Result](b, "fig3")
		var f float64
		var n int
		for _, row := range r.Rows {
			if row.Mode == harness.ModeJIT {
				f += row.WriteMissFracs[3]
				n++
			}
		}
		b.ReportMetric(f/float64(n), "jit-64K-write-miss-frac")
	}
}

// BenchmarkFig4 regenerates the mode-vs-compiled comparison.
func BenchmarkFig4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Fig4Result](b, "fig4")
		b.ReportMetric(r.Rows[0].DMiss, "interp-dmiss")
		b.ReportMetric(r.Rows[1].DMiss, "jit-dmiss")
		b.ReportMetric(r.Rows[2].DMiss, "aot-dmiss")
	}
}

// BenchmarkFig5 regenerates the translate-portion isolation.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Fig5Result](b, "fig5")
		var wf float64
		for _, row := range r.Rows {
			wf += row.WriteFracInTranslate
		}
		b.ReportMetric(wf/float64(len(r.Rows)), "translate-write-miss-frac")
	}
}

// BenchmarkFig6 regenerates the miss-over-time profile.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Fig6Result](b, "fig6")
		_, pj := r.JITSpikiness()
		b.ReportMetric(pj, "jit-peak-over-mean")
	}
}

// BenchmarkFig7 regenerates the associativity sweep.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Fig7Result](b, "fig7")
		// Mean relative improvement from direct-mapped to 2-way.
		var imp float64
		var n int
		for _, row := range r.Rows {
			if row.DMiss[0] > 0 {
				imp += 1 - row.DMiss[1]/row.DMiss[0]
				n++
			}
		}
		b.ReportMetric(imp/float64(n), "dm-to-2way-dmiss-gain")
	}
}

// BenchmarkFig8 regenerates the line-size sweep.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Fig8Result](b, "fig8")
		var gain float64
		var n int
		for _, row := range r.Rows {
			if row.IMiss[0] > 0 {
				gain += 1 - row.IMiss[len(row.IMiss)-1]/row.IMiss[0]
				n++
			}
		}
		b.ReportMetric(gain/float64(n), "line16-to-128-imiss-gain")
	}
}

// BenchmarkFig9 regenerates the IPC study (Figure 10 shares the runs).
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Fig9Result](b, "fig9")
		ii := r.AvgIPC(harness.ModeInterp)
		jj := r.AvgIPC(harness.ModeJIT)
		b.ReportMetric(ii[2], "interp-ipc-w4")
		b.ReportMetric(jj[2], "jit-ipc-w4")
		b.ReportMetric(ii[3]/ii[0], "interp-scaling")
		b.ReportMetric(jj[3]/jj[0], "jit-scaling")
	}
}

// BenchmarkFig10 regenerates the normalized-execution-time view.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Fig10Result](b, "fig10")
		if len(r.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig11 regenerates the synchronization study.
func BenchmarkFig11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.Fig11Result](b, "fig11")
		b.ReportMetric(r.CaseAFrac(), "case-a-frac")
		b.ReportMetric(r.MeanSpeedup(), "thin-lock-speedup")
	}
}

// BenchmarkAblateInstall regenerates the A1/A2 installation ablation.
func BenchmarkAblateInstall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.AblateInstallResult](b, "ablate-install")
		var gain float64
		var n int
		for _, row := range r.Rows {
			if row.DMissesWA > 0 {
				gain += 1 - float64(row.DMissesDirect)/float64(row.DMissesWA)
				n++
			}
		}
		b.ReportMetric(gain/float64(n), "direct-install-dmiss-gain")
	}
}

// BenchmarkAblateInline regenerates the devirtualization ablation.
func BenchmarkAblateInline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := runAs[*harness.AblateInlineResult](b, "ablate-inline")
		var d float64
		for _, row := range r.Rows {
			d += row.IndirectFracOff - row.IndirectFracOn
		}
		b.ReportMetric(d/float64(len(r.Rows)), "devirt-indirect-reduction")
	}
}

// BenchmarkAblateThreshold regenerates the policy sweep.
func BenchmarkAblateThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runAs[*harness.AblateThresholdResult](b, "ablate-threshold")
	}
}

// ---------------------------------------------------------------------
// Raw engine micro-benchmarks: execution cost per simulated instruction.

func benchWorkload(b *testing.B, name string, mode harness.Mode, sinks ...trace.Sink) {
	w, ok := workloads.ByName(name)
	if !ok {
		b.Fatal("unknown workload")
	}
	var instrs uint64
	for i := 0; i < b.N; i++ {
		e, err := harness.RunCtx(context.Background(), w, w.BenchN, mode, core.Config{}, sinks...)
		if err != nil {
			b.Fatal(err)
		}
		instrs += e.TotalInstrs()
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "sim-instrs/op")
}

// BenchmarkEngineInterp measures raw interpretation speed.
func BenchmarkEngineInterp(b *testing.B) { benchWorkload(b, "javac", harness.ModeInterp) }

// BenchmarkEngineJIT measures raw translate+execute speed.
func BenchmarkEngineJIT(b *testing.B) { benchWorkload(b, "javac", harness.ModeJIT) }

// BenchmarkEngineWithCaches measures the cache-simulator overhead.
func BenchmarkEngineWithCaches(b *testing.B) {
	benchWorkload(b, "javac", harness.ModeJIT, newPaperCaches())
}

// BenchmarkEngineWithPipeline measures the pipeline-model overhead.
func BenchmarkEngineWithPipeline(b *testing.B) {
	benchWorkload(b, "javac", harness.ModeJIT, newPipeline())
}
