package cache

import (
	"fmt"
	"slices"
	"testing"

	"jrs/internal/core"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// fusedCachesim builds the ten hierarchies one fused cachesim claim
// groups: table3's paper default, fig3's direct-mapped 8K to 128K and
// fig7's 8K associativities 1 to 8, all with 32-byte lines.
func fusedCachesim() []*Hierarchy {
	pair := func(size, assoc int) *Hierarchy {
		i := Config{Name: "I", Size: size, LineSize: 32, Assoc: assoc, WriteAllocate: true}
		d := i
		d.Name = "D"
		return NewHierarchy(i, d)
	}
	hs := []*Hierarchy{PaperDefault()}
	for _, size := range []int{8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10} {
		hs = append(hs, pair(size, 1))
	}
	for _, assoc := range []int{1, 2, 4, 8} {
		hs = append(hs, pair(8<<10, assoc))
	}
	return hs
}

// refSink steps reference hierarchies one instruction at a time.
type refSink []*refHierarchy

func (s refSink) Emit(in trace.Inst) { s.EmitBatch([]trace.Inst{in}) }

func (s refSink) EmitBatch(batch []trace.Inst) {
	for _, in := range batch {
		for _, r := range s {
			r.step(in)
		}
	}
}

// TestCacheGroupForest feeds the fused cachesim group the javac and
// jess traces of the interpreter and the JIT, and requires every
// counter of reference hierarchies stepped one instruction at a time.
// The group is one bucket whose six direct-mapped I and D caches each
// form a chain, and whose data runs merge. Its hierarchies are grouped
// largest first, so the chain's head is the last one added.
func TestCacheGroupForest(t *testing.T) {
	for _, name := range []string{"javac", "jess"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		for _, policy := range []core.Policy{core.InterpretOnly{}, core.CompileFirst{}} {
			hs := fusedCachesim()
			bySize := slices.Clone(hs)
			slices.SortStableFunc(bySize, func(a, b *Hierarchy) int { return b.I.cfg.Size - a.I.cfg.Size })
			g := NewGroup(bySize...).(*group)
			if b := g.buckets; len(b) != 1 || b[0].iChain != 6 || b[0].dChain != 6 || !b[0].merge {
				t.Fatalf("fused group: %d buckets, chains %d/%d, merge %t; want 1, 6/6, true",
					len(b), b[0].iChain, b[0].dChain, b[0].merge)
			}
			var refs refSink
			for _, h := range hs {
				refs = append(refs, &refHierarchy{I: newRefCache(h.I.Config()), D: newRefCache(h.D.Config())})
			}
			e := core.New(core.Config{Policy: policy, Sink: trace.Tee(g, refs)})
			if err := e.VM.Load(w.Classes(2)); err != nil {
				t.Fatal(err)
			}
			main, err := e.VM.LookupMain()
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Run(main); err != nil {
				t.Fatal(err)
			}
			run := fmt.Sprintf("%s/%T", name, policy)
			for i, h := range hs {
				for _, side := range []struct {
					c   *Cache
					ref *refCache
				}{{h.I, refs[i].I}, {h.D, refs[i].D}} {
					if side.ref.Stats.Misses() == 0 {
						t.Errorf("%s hierarchy %d %+v: no misses", run, i, side.c.Config())
					}
					if side.c.Stats != side.ref.Stats || side.c.PhaseStats != side.ref.PhaseStats {
						t.Errorf("%s hierarchy %d %+v: stats %+v %+v, reference %+v %+v", run, i, side.c.Config(),
							side.c.Stats, side.c.PhaseStats, side.ref.Stats, side.ref.PhaseStats)
					}
				}
			}
		}
	}
}
