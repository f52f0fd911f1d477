package harness

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jrs/internal/cache"
	"jrs/internal/core"
	"jrs/internal/mem"
	"jrs/internal/trace"
)

// cacheCounterConfig is one labelled hierarchy of the counters golden.
type cacheCounterConfig struct {
	label string
	h     *cache.Hierarchy
}

// cacheCounterConfigs builds every hierarchy shape the cache
// experiments attach: table3's paper default, fig3's direct-mapped
// sizes, fig7's associativities, fig8's line sizes, ablate-install's
// write-no-allocate D-cache and its direct-install hierarchy.
func cacheCounterConfigs() []cacheCounterConfig {
	pair := func(size, line, assoc int) *cache.Hierarchy {
		i := cache.Config{Name: "I", Size: size, LineSize: line, Assoc: assoc, WriteAllocate: true}
		d := i
		d.Name = "D"
		return cache.NewHierarchy(i, d)
	}
	cfgs := []cacheCounterConfig{{"table3", cache.PaperDefault()}}
	for _, sz := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		cfgs = append(cfgs, cacheCounterConfig{fmt.Sprintf("fig3-%dK", sz>>10), pair(sz, 32, 1)})
	}
	for _, assoc := range []int{1, 2, 4, 8} {
		cfgs = append(cfgs, cacheCounterConfig{fmt.Sprintf("fig7-assoc%d", assoc), pair(8<<10, 32, assoc)})
	}
	for _, line := range []int{16, 32, 64, 128} {
		cfgs = append(cfgs, cacheCounterConfig{fmt.Sprintf("fig8-line%d", line), pair(8<<10, line, 1)})
	}
	wna := cache.NewHierarchy(
		cache.Config{Name: "I", Size: 64 << 10, LineSize: 32, Assoc: 2, WriteAllocate: true},
		cache.Config{Name: "D", Size: 64 << 10, LineSize: 32, Assoc: 4, WriteAllocate: false},
	)
	direct := cache.PaperDefault()
	direct.DirectInstall = true
	direct.CodeLow, direct.CodeHigh = mem.CodeCacheBase, mem.ClassBase
	return append(cfgs, cacheCounterConfig{"no-alloc", wna}, cacheCounterConfig{"direct", direct})
}

// cacheCountersWindow is the Sampler window of the counters golden.
const cacheCountersWindow = 20_000

// formatStats prints every field of s, in declaration order.
func formatStats(s cache.Stats) string {
	return fmt.Sprintf("%d/%d/%d/%d/%d/%d", s.Reads, s.Writes, s.ReadMisses, s.WriteMisses, s.Compulsory, s.Writebacks)
}

// formatCacheCounters prints each hierarchy's I and D totals and
// per-phase counters, then the sampler's series.
func formatCacheCounters(b *strings.Builder, run string, cfgs []cacheCounterConfig, s *cache.Sampler) {
	for _, c := range cfgs {
		for _, side := range []*cache.Cache{c.h.I, c.h.D} {
			fmt.Fprintf(b, "%s %s %s: %s", run, c.label, side.Config().Name, formatStats(side.Stats))
			for p := trace.Phase(0); p < trace.NumPhases; p++ {
				fmt.Fprintf(b, " %v=%s", p, formatStats(side.PhaseStats[p]))
			}
			b.WriteByte('\n')
		}
	}
	for _, iv := range s.Series {
		fmt.Fprintf(b, "%s sampler: instrs=%d imiss=%d dmiss=%d irefs=%d drefs=%d\n",
			run, iv.Instrs, iv.IMisses, iv.DMisses, iv.IRefs, iv.DRefs)
	}
}

// TestCacheCountersGolden pins the cache model's exact counters (not
// miss rates at two decimals, as the experiment goldens do): every
// Stats field of both caches, in total and per phase, for every
// hierarchy shape the cache experiments use, plus one Sampler series,
// on four workloads under every engine. Each line's counters read
// reads/writes/read-misses/write-misses/compulsory/writebacks. Refresh
// with:
//
//	go test ./internal/harness -run TestCacheCountersGolden -update
func TestCacheCountersGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload simulation")
	}
	var b strings.Builder
	for _, name := range []string{"hello", "jess", "javac", "mtrt"} {
		w := mustWorkload(t, name)
		for _, mode := range []Mode{ModeInterp, ModeJIT, ModeAOT} {
			cfgs := cacheCounterConfigs()
			s := cache.NewSampler(cache.PaperDefault(), cacheCountersWindow)
			sinks := []trace.Sink{s}
			for _, c := range cfgs {
				sinks = append(sinks, c.h)
			}
			if _, err := RunCtx(context.Background(), w, 2, mode, core.Config{}, sinks...); err != nil {
				t.Fatal(err)
			}
			s.Finish()
			formatCacheCounters(&b, fmt.Sprintf("%s/%v", name, mode), cfgs, s)
		}
	}
	checkGolden(t, "cache-counters.txt", b.String())
}

// TestCacheGroupMatchesStandalone runs the counters golden's hierarchies
// as one cache.NewGroup, in batches of 333 instructions, and requires
// the very counters the golden pins for standalone hierarchies. The
// group mixes buckets: two I line sizes and three D line sizes, and
// the direct-install range on its own.
func TestCacheGroupMatchesStandalone(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-workload simulation")
	}
	old := trace.BatchSize
	defer func() { trace.BatchSize = old }()
	trace.BatchSize = 333
	var b strings.Builder
	for _, name := range []string{"hello", "jess", "javac", "mtrt"} {
		w := mustWorkload(t, name)
		for _, mode := range []Mode{ModeInterp, ModeJIT, ModeAOT} {
			cfgs := cacheCounterConfigs()
			s := cache.NewSampler(cache.PaperDefault(), cacheCountersWindow)
			var hs []*cache.Hierarchy
			for _, c := range cfgs {
				hs = append(hs, c.h)
			}
			if _, err := RunCtx(context.Background(), w, 2, mode, core.Config{}, s, cache.NewGroup(hs...)); err != nil {
				t.Fatal(err)
			}
			s.Finish()
			formatCacheCounters(&b, fmt.Sprintf("%s/%v", name, mode), cfgs, s)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden", "cache-counters.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("grouped counters differ from the standalone golden\n--- got ---\n%s", got)
	}
}
