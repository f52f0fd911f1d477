package harness

import (
	"context"
	"fmt"
	"os"
	"sync"

	"jrs/internal/core"
	"jrs/internal/jit/codecache"
	"jrs/internal/stats"
)

// AblateCodeCacheRow measures, for one workload under the JIT, what the
// shared translation cache saves: translate-phase instructions cold vs
// warm (in-process) vs disk-warm (fresh process image, warm on-disk
// store), and the translate de-duplication when four engines share one
// initially cold cache (serial vs parallel sharing).
type AblateCodeCacheRow struct {
	Workload string
	// TranslateCold is the translate-phase instruction count of the run
	// that populates a fresh cache — identical to an uncached run (a
	// miss runs the full generator; the probe cost is charged on hits
	// only). TranslateWarm re-runs against the warm in-process cache;
	// TranslateDisk against a warm disk store through a cold in-process
	// level (the "next morning" shape).
	TranslateCold, TranslateWarm, TranslateDisk uint64
	// ColdMisses is the number of distinct translations the cold run
	// stored; WarmHits the warm run's cache hits.
	ColdMisses, WarmHits int64
	// SharedMisses / SharedHits aggregate four engines sharing one
	// initially cold cache: singleflight translates each successful key
	// exactly once, so SharedMisses stays at the cold-run level while
	// SharedHits absorbs the other three engines' compiles.
	SharedMisses, SharedHits int64
	// SharedTranslate is the four engines' summed translate-phase count —
	// deterministic (one full translation plus three probes per method)
	// even though per-engine attribution depends on scheduling.
	SharedTranslate uint64
	// CodeKB is the per-engine installed native code size: address-space
	// footprint is paid per engine either way; the cache shares the
	// translation work, and (disk-backed) persists it across runs.
	CodeKB uint64
}

// AblateCodeCacheResult is the shared-translation-cache ablation.
type AblateCodeCacheResult struct{ Rows []AblateCodeCacheRow }

// ablateCodeCachePlan enumerates one cell per workload. Every cell
// builds its own cache instances, so the measurement is isolated from
// any process-default cache `jrs -codecache` may have installed. The
// cold, warm and disk legs are declared runs; the shared leg races four
// engines on one cache, so it is the one cell that starts engines
// itself.
func ablateCodeCachePlan(o Options) *Plan {
	list := o.seven()
	res := &AblateCodeCacheResult{Rows: make([]AblateCodeCacheRow, len(list))}
	p := newPlan("ablate-codecache", res)
	for i, w := range list {
		scale := resolveScale(o, w)
		key := CellKey{Experiment: "ablate-codecache", Workload: w.Name, Scale: scale, Mode: "jit",
			Config: "cold+warm+disk+shared4"}
		p.add(key, &res.Rows[i], func(ctx context.Context) (any, error) {
			row := AblateCodeCacheRow{Workload: w.Name}
			translate := func(e *core.Engine) uint64 {
				_, tr, _ := e.PhaseInstrs()
				return tr
			}

			// Disk-warm populates a disk-backed cache, then reads it back
			// through a second handle with a cold in-process level — the
			// persistent cross-run reuse path. A handle reads the disk
			// lazily, so both open up front.
			dir, err := os.MkdirTemp("", "jrs-codecache-*")
			if err != nil {
				return row, err
			}
			defer os.RemoveAll(dir)
			d1, err := codecache.Open(dir)
			if err != nil {
				return row, err
			}
			d2, err := codecache.Open(dir)
			if err != nil {
				return row, err
			}
			// Cold populates a fresh in-process cache (instruction stream
			// identical to an uncached run), then warm re-runs on it.
			cc := codecache.NewMemory()
			err = execRuns(ctx, w, scale, nil, []run{
				{mode: ModeJIT, cfg: core.Config{CodeCache: cc}, done: func(e *core.Engine) {
					row.TranslateCold = translate(e)
					row.ColdMisses = cc.Stats().Misses
					row.CodeKB = e.JIT.CodeBytes >> 10
				}},
				{mode: ModeJIT, cfg: core.Config{CodeCache: cc}, done: func(e *core.Engine) {
					row.TranslateWarm = translate(e)
					row.WarmHits = cc.Stats().Hits
				}},
				{mode: ModeJIT, cfg: core.Config{CodeCache: d1}},
				{mode: ModeJIT, cfg: core.Config{CodeCache: d2}, done: func(e *core.Engine) {
					row.TranslateDisk = translate(e)
				}},
			})
			if err != nil {
				return row, err
			}

			// Shared: four engines race one initially cold cache.
			// Singleflight makes the aggregate counts and the summed
			// translate-phase total deterministic regardless of
			// scheduling; only per-engine attribution varies.
			sc := codecache.NewMemory()
			var (
				wg       sync.WaitGroup
				mu       sync.Mutex
				firstErr error
				sharedTr uint64
			)
			for range 4 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					e, err := RunCtx(ctx, w, scale, ModeJIT, core.Config{CodeCache: sc})
					mu.Lock()
					defer mu.Unlock()
					if err != nil {
						if firstErr == nil {
							firstErr = err
						}
						return
					}
					sharedTr += translate(e)
				}()
			}
			wg.Wait()
			if firstErr != nil {
				return row, fmt.Errorf("shared leg: %w", firstErr)
			}
			s := sc.Stats()
			row.SharedMisses, row.SharedHits = s.Misses, s.Hits
			row.SharedTranslate = sharedTr
			return row, nil
		})
	}
	return p
}

// Render formats the code-cache ablation.
func (r *AblateCodeCacheResult) Render() string {
	t := stats.NewTable("Ablation: shared JIT translation cache (cold vs warm vs disk-warm, 4-way sharing)",
		"workload", "translate (cold)", "translate (warm)", "translate (disk)",
		"cold misses", "warm hits", "shared 4x misses", "shared 4x hits",
		"shared 4x translate", "code KB")
	for _, row := range r.Rows {
		t.AddRow(row.Workload,
			stats.Count(row.TranslateCold), stats.Count(row.TranslateWarm),
			stats.Count(row.TranslateDisk),
			stats.Count(uint64(row.ColdMisses)), stats.Count(uint64(row.WarmHits)),
			stats.Count(uint64(row.SharedMisses)), stats.Count(uint64(row.SharedHits)),
			stats.Count(row.SharedTranslate), stats.Count(row.CodeKB))
	}
	t.Note("ShareJIT-style sharing: a warm cache replaces each method's full translation (~10^2 instructions per bytecode, §3) with a constant probe-and-relink, so the translate phase all but vanishes while program output stays byte-identical; 4-way sharing translates each method once (singleflight) instead of four times")
	return t.String()
}
