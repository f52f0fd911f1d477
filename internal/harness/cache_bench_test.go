package harness

import (
	"fmt"
	"testing"

	"jrs/internal/cache"
	"jrs/internal/trace"
)

// BenchmarkCacheEmitBatch times the cache model alone, off the traces
// BenchmarkCoreEmitBatch records: a standalone hierarchy for each of
// table3's, fig3's and fig7's configs, fig3's and fig7's sweeps as one
// cache.NewGroup each, and all ten hierarchies of table3, fig3 and
// fig7 as the one group a fused cachesim claim attaches. ns/inst is
// host time per trace instruction, so a group's figure covers all of
// its hierarchies. Each iteration releases its group and hierarchies,
// as execRuns does, so B/op shows what the pools leave to allocate.
//
//	go test ./internal/harness -run '^$' -bench CacheEmitBatch -count 10
func BenchmarkCacheEmitBatch(b *testing.B) {
	traces, err := coreTraces()
	if err != nil {
		b.Fatal(err)
	}
	pair := func(size, assoc int) *cache.Hierarchy {
		i := cache.Config{Name: "I", Size: size, LineSize: 32, Assoc: assoc, WriteAllocate: true}
		d := i
		d.Name = "D"
		return cache.NewHierarchy(i, d)
	}
	fig3 := func() []*cache.Hierarchy {
		var hs []*cache.Hierarchy
		for _, sz := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
			hs = append(hs, pair(sz, 1))
		}
		return hs
	}
	fig7 := func() []*cache.Hierarchy {
		var hs []*cache.Hierarchy
		for _, assoc := range []int{1, 2, 4, 8} {
			hs = append(hs, pair(8<<10, assoc))
		}
		return hs
	}
	// bench feeds the trace to one standalone hierarchy, or to a group
	// of several.
	bench := func(name string, insts []trace.Inst, hs func() []*cache.Hierarchy) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hs := hs()
				if len(hs) == 1 {
					emitBatches(hs[0], insts)
				} else {
					g := cache.NewGroup(hs...)
					emitBatches(g, insts)
					g.Release()
				}
				for _, h := range hs {
					h.Release()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(insts)), "ns/inst")
		})
	}
	one := func(h *cache.Hierarchy) []*cache.Hierarchy { return []*cache.Hierarchy{h} }
	for _, tr := range traces {
		bench(tr.name+"/table3", tr.insts, func() []*cache.Hierarchy { return one(cache.PaperDefault()) })
		for _, sz := range []int{8, 16, 32, 64, 128} {
			bench(fmt.Sprintf("%s/fig3-%dK", tr.name, sz), tr.insts, func() []*cache.Hierarchy { return one(pair(sz<<10, 1)) })
		}
		for _, assoc := range []int{2, 4, 8} {
			bench(fmt.Sprintf("%s/fig7-assoc%d", tr.name, assoc), tr.insts, func() []*cache.Hierarchy { return one(pair(8<<10, assoc)) })
		}
		bench(tr.name+"/fig3-group", tr.insts, fig3)
		bench(tr.name+"/fig7-group", tr.insts, fig7)
		bench(tr.name+"/fused-cachesim", tr.insts, func() []*cache.Hierarchy {
			hs := append([]*cache.Hierarchy{cache.PaperDefault()}, fig3()...)
			return append(hs, fig7()...)
		})
	}
}
