package harness

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"

	"jrs/internal/core"
	"jrs/internal/jit/codecache"
	"jrs/internal/stats"
	"jrs/internal/workloads"
)

// AblateCodeCacheRow measures, for one workload under the JIT, what the
// shared translation cache saves: translate-phase instructions cold vs
// warm (in-process) vs disk-warm (fresh process image, warm on-disk
// store), and the translate de-duplication when four engines share one
// initially cold cache (the cold run and three warm runs on it).
type AblateCodeCacheRow struct {
	Workload string
	// TranslateCold is the translate-phase instruction count of the run
	// that populates a fresh cache — identical to an uncached run (a
	// miss runs the full generator; the probe cost is charged on hits
	// only). TranslateWarm is the first re-run against the warm
	// in-process cache; TranslateDisk a run through a second handle on
	// the cache's directory, which reads the warm disk store through a
	// cold in-process level (the "next morning" shape).
	TranslateCold, TranslateWarm, TranslateDisk uint64
	// ColdMisses is the number of distinct translations the cold run
	// stored; WarmHits the hits after the first warm run.
	ColdMisses, WarmHits int64
	// SharedMisses / SharedHits aggregate the four engines on the first
	// handle: each key is translated once, by the cold run, so
	// SharedMisses stays at the cold-run level while SharedHits absorbs
	// the three warm runs' compiles. Engines racing one cache give the
	// same totals (singleflight).
	SharedMisses, SharedHits int64
	// SharedTranslate is the four engines' summed translate-phase count:
	// one full translation plus three probes per method.
	SharedTranslate uint64
	// CodeKB is the per-engine installed native code size: address-space
	// footprint is paid per engine either way; the cache shares the
	// translation work, and (disk-backed) persists it across runs.
	CodeKB uint64
}

// AblateCodeCacheResult is the shared-translation-cache ablation.
type AblateCodeCacheResult struct{ Rows []AblateCodeCacheRow }

// ablateCodeCachePlan enumerates one JIT cell per workload, claimed
// alone: every run attaches a cache of the cell's own, so it shares no
// engine run with another cell, and the measurement is isolated from
// any process-default cache `jrs -codecache` may have installed. A cell
// makes five runs in order: a cold run on a disk-backed cache, three
// warm runs on it, and a run through a second handle on its directory.
func ablateCodeCachePlan(o Options) *Plan {
	res := &AblateCodeCacheResult{}
	p := newPlan("ablate-codecache", res)
	cells(p, o, o.seven(), jitOnly, "", "cold+warm+disk+shared4", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (AblateCodeCacheRow, error)) {
			row := AblateCodeCacheRow{Workload: w.Name}
			// The cold run's first store makes dir, so declaring the cell
			// writes nothing, and the cold run's cleanup removes dir
			// however the attempt ends.
			dir := filepath.Join(os.TempDir(), fmt.Sprintf("jrs-codecache-%016x", rand.Uint64()))
			cc, disk := codecache.NewMemory(), codecache.NewMemory()
			cc.Dir, disk.Dir = dir, dir
			shared := func(e *core.Engine) uint64 {
				_, tr, _ := e.PhaseInstrs()
				row.SharedTranslate += tr
				return tr
			}
			runs := []run{{mode: mode, name: "codecache-cold", cfg: core.Config{CodeCache: cc},
				cleanup: func() { os.RemoveAll(dir) },
				done: func(e *core.Engine) {
					row.TranslateCold = shared(e)
					row.ColdMisses = cc.Stats().Misses
					row.CodeKB = e.JIT.CodeBytes >> 10
				}}}
			for k := range 3 {
				runs = append(runs, run{mode: mode, name: "codecache-warm", cfg: core.Config{CodeCache: cc},
					done: func(e *core.Engine) {
						if tr := shared(e); k == 0 {
							row.TranslateWarm, row.WarmHits = tr, cc.Stats().Hits
						}
					}})
			}
			runs = append(runs, run{mode: mode, name: "codecache-disk", cfg: core.Config{CodeCache: disk},
				done: func(e *core.Engine) { _, row.TranslateDisk, _ = e.PhaseInstrs() }})
			return runs, func() (AblateCodeCacheRow, error) {
				s := cc.Stats()
				if s.StoreErrors > 0 {
					return row, fmt.Errorf("code cache %s: %d of %d stores failed", dir, s.StoreErrors, s.Stores)
				}
				row.SharedMisses, row.SharedHits = s.Misses, s.Hits
				return row, nil
			}
		})
	p.claimAlone()
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
