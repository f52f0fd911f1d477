package conc

import (
	"jrs/internal/analysis"
	"jrs/internal/analysis/ipa"
	"jrs/internal/bytecode"
	"sort"
)

// May-happen-in-parallel. The model: main executes the program in
// order; a Sys.spawn site makes its abstract thread *pending*; a
// Sys.join whose argument provably names one spawn site's id (and that
// site runs at most once) makes it non-pending again. A statement of
// main's may run in parallel with thread t iff t is pending there; two
// spawned threads may run in parallel iff either is pending at the
// other's spawn site. Threads whose spawn structure is not analyzable
// from a run-once main (conservative) parallel everything. The pending
// set is a forward dataflow (analysis.Solve) over each main-executed
// method, with call edges folding in callee may-spawn summaries and an
// interprocedural entry fixpoint.

// threadMask is a set of abstract thread indices (bit i = threads[i]);
// all subsumes every index (used past 64 threads — still sound).
type threadMask struct {
	all  bool
	bits uint64
}

func (m threadMask) has(i int) bool {
	return m.all || (i < 64 && m.bits&(1<<uint(i)) != 0)
}

func (m threadMask) set(i int) threadMask {
	if m.all {
		return m
	}
	if i >= 64 {
		return threadMask{all: true}
	}
	m.bits |= 1 << uint(i)
	return m
}

func (m threadMask) clear(i int) threadMask {
	if m.all || i >= 64 {
		return m
	}
	m.bits &^= 1 << uint(i)
	return m
}

func (m threadMask) union(o threadMask) threadMask {
	return threadMask{all: m.all || o.all, bits: m.bits | o.bits}
}

// pendFlow adapts the pending-spawn transfer to analysis.Solve.
type pendFlow struct {
	a *analyzer
	f *ipa.MethodFacts
}

func (p pendFlow) Entry(g *analysis.Graph) threadMask {
	return p.a.entryPend[g.M.ID]
}

func (p pendFlow) Transfer(g *analysis.Graph, b *analysis.Block, in threadMask) (threadMask, error) {
	m := in
	for pc := b.Start; pc < b.End; pc++ {
		m = p.a.stepPend(g.M, p.f, pc, m)
	}
	return m, nil
}

func (p pendFlow) Join(_ *analysis.Graph, _ *analysis.Block, have, incoming threadMask) (threadMask, bool, error) {
	u := have.union(incoming)
	return u, u != have, nil
}

// stepPend applies instruction pc of method m to the pending set.
func (a *analyzer) stepPend(m *bytecode.Method, f *ipa.MethodFacts, pc int, mask threadMask) threadMask {
	if !m.Code[pc].Op.IsInvoke() {
		return mask
	}
	if ti, ok := a.threadBy[ipa.Site{Method: m.ID, PC: pc}]; ok {
		return mask.set(ti)
	}
	cf := f.CallAt(pc)
	switch {
	case cf == nil:
	case cf.Sys:
		tid, _ := cf.SysArg("join")
		if spc, one := tid.Single(ipa.SrcTid); one {
			if ti, ok := a.threadBy[ipa.Site{Method: m.ID, PC: spc}]; ok && !a.threads[ti].multi {
				mask = mask.clear(ti)
			}
		}
	default:
		for _, t := range cf.Targets {
			mask = mask.union(a.maySpawn[t.ID])
		}
	}
	return mask
}

// solvePending computes may-spawn summaries, then the interprocedural
// pending-at-entry fixpoint over main-executed methods, materializing
// per-pc pending sets.
func (a *analyzer) solvePending() {
	// May-spawn summaries (transitive).
	for {
		changed := false
		for _, m := range a.ipa.Methods() {
			f := a.ipa.Facts(m)
			mask := a.maySpawn[m.ID]
			for i := range f.Calls {
				cf := &f.Calls[i]
				if ti, ok := a.threadBy[ipa.Site{Method: m.ID, PC: cf.PC}]; ok {
					mask = mask.set(ti)
				}
				for _, t := range cf.Targets {
					mask = mask.union(a.maySpawn[t.ID])
				}
			}
			if mask != a.maySpawn[m.ID] {
				a.maySpawn[m.ID] = mask
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Interprocedural pending fixpoint over main-owned methods.
	for {
		changed := false
		for _, m := range a.ipa.Methods() {
			if !a.owners[m.ID][0] {
				continue
			}
			f := a.ipa.Facts(m)
			per := a.solvePendMethod(m, f)
			a.pendAt[m.ID] = per
			if per == nil {
				continue
			}
			for i := range f.Calls {
				cf := &f.Calls[i]
				if cf.Sys || cf.PC >= len(per) {
					continue
				}
				at := per[cf.PC]
				for _, t := range cf.Targets {
					u := a.entryPend[t.ID].union(at)
					if u != a.entryPend[t.ID] {
						a.entryPend[t.ID] = u
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}
}

// solvePendMethod returns the pending set before each pc, or nil when
// the body has no usable flow (treated as all-pending by pendingAt).
func (a *analyzer) solvePendMethod(m *bytecode.Method, f *ipa.MethodFacts) []threadMask {
	g := f.Graph
	if g == nil || f.NoFlow {
		return nil
	}
	entries, err := analysis.Solve[threadMask](g, pendFlow{a: a, f: f})
	if err != nil {
		return nil
	}
	per := make([]threadMask, len(m.Code))
	for bi, b := range g.Blocks {
		if !g.Reachable(bi) {
			continue
		}
		cur := entries[bi]
		for pc := b.Start; pc < b.End; pc++ {
			per[pc] = cur
			cur = a.stepPend(m, f, pc, cur)
		}
	}
	return per
}

// pendingAt returns main's pending set before (mid, pc), conservative
// when unknown.
func (a *analyzer) pendingAt(mid, pc int) threadMask {
	per := a.pendAt[mid]
	if per == nil || pc >= len(per) {
		return threadMask{all: true}
	}
	return per[pc]
}

// instRef locates one access instance: an abstract thread executing an
// instruction.
type instRef struct {
	ctx int
	mid int
	pc  int
}

// mhp decides whether two access instances may run in parallel.
func (a *analyzer) mhp(x, y instRef) bool {
	if x.ctx == 0 && y.ctx == 0 {
		return false
	}
	if x.ctx == y.ctx {
		// Same abstract thread: parallel only when the spawn site can
		// produce more than one dynamic thread.
		return a.threads[x.ctx-1].multi
	}
	if y.ctx == 0 {
		x, y = y, x
	}
	ty := a.threads[y.ctx-1]
	if x.ctx == 0 {
		if ty.conservative {
			return true
		}
		return a.pendingAt(x.mid, x.pc).has(y.ctx - 1)
	}
	tx := a.threads[x.ctx-1]
	if tx.conservative || ty.conservative {
		return true
	}
	return a.pendingAt(ty.site.Method, ty.site.PC).has(x.ctx-1) ||
		a.pendingAt(tx.site.Method, tx.site.PC).has(y.ctx-1)
}

// sortedPCs returns a map's pc keys in order (shared helper).
func sortedPCs[T any](m map[int]T) []int {
	out := make([]int, 0, len(m))
	for pc := range m {
		out = append(out, pc)
	}
	sort.Ints(out)
	return out
}
