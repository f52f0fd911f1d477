package conc

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"jrs/internal/analysis"
	"jrs/internal/analysis/ipa"
	"jrs/internal/bytecode"
)

// Must-lockset analysis. A lock symbol names a runtime monitor the
// analysis can prove unique: a class object (always one per class) or
// an allocation site that executes at most once (allocated by the
// run-once main outside any loop). The intraprocedural layer is a
// symbolic monitor-stack dataflow via analysis.Solve, mirroring the
// monitor-balance pass; the interprocedural layer intersects held
// locks over all call edges within one context (must-hold), rooted at
// the thread entries with the empty set.

type lockSym struct {
	// kind: 0 = unique allocation site, 1 = class object.
	kind  uint8
	site  ipa.Site
	class string
}

func cmpLockSym(x, y lockSym) int {
	if x.kind != y.kind {
		return cmp.Compare(x.kind, y.kind)
	}
	if x.kind == 1 {
		return strings.Compare(x.class, y.class)
	}
	return cmpSite(x.site, y.site)
}

// lockName renders a symbol for reports.
func (a *analyzer) lockName(s lockSym) string {
	if s.kind == 1 {
		return "class:" + s.class
	}
	return fmt.Sprintf("alloc:%s@%d", a.ipa.MethodByID(s.site.Method).FullName(), s.site.PC)
}

// lockSet is a sorted set of lock symbols; top is the must-analysis ⊤
// (uninitialized: intersecting with anything yields the other side).
type lockSet struct {
	top  bool
	syms []lockSym
}

var lockTop = lockSet{top: true}

func lockUnion(a, b lockSet) lockSet {
	// top never participates in unions (callers strip it first).
	out := lockSet{}
	out.syms = append(append([]lockSym(nil), a.syms...), b.syms...)
	slices.SortFunc(out.syms, cmpLockSym)
	out.syms = slices.Compact(out.syms)
	return out
}

func lockIntersect(a, b lockSet) lockSet {
	if a.top {
		return b
	}
	if b.top {
		return a
	}
	out := lockSet{}
	i, j := 0, 0
	for i < len(a.syms) && j < len(b.syms) {
		switch {
		case a.syms[i] == b.syms[j]:
			out.syms = append(out.syms, a.syms[i])
			i++
			j++
		case cmpLockSym(a.syms[i], b.syms[j]) < 0:
			i++
		default:
			j++
		}
	}
	return out
}

func lockEqual(a, b lockSet) bool {
	return a.top == b.top && slices.Equal(a.syms, b.syms)
}

func lockDisjoint(a, b lockSet) bool {
	got := lockIntersect(notTop(a), notTop(b))
	return len(got.syms) == 0
}

// notTop degrades an unresolved entry set to the empty set: claiming
// no locks is the sound direction for race detection.
func notTop(s lockSet) lockSet {
	if s.top {
		return lockSet{}
	}
	return s
}

// uniqueSite reports whether the allocation site executes at most once
// per program run: it sits in a run-once main root, outside any loop.
func (a *analyzer) uniqueSite(s ipa.Site) bool {
	return a.mainRoots[s.Method] && !a.calledFrom[s.Method] &&
		a.ownersExactly(s.Method, 0) && !a.siteInLoop(s.Method, s.PC)
}

// resolveLockVal maps a monitor operand to its unique lock symbol, or
// none when the operand is not provably one unique object.
func (a *analyzer) resolveLockVal(ctx int, m *bytecode.Method, v ipa.Value) []lockSym {
	s := a.globalize(ctx, m, v)
	if s.unknown || len(s.sites) != 1 {
		return nil
	}
	site := s.sites[0]
	if !a.uniqueSite(site) {
		return nil
	}
	return []lockSym{{kind: 0, site: site}}
}

// syncSyms returns the lock a synchronized method holds for its whole
// body under one context.
func (a *analyzer) syncSyms(ctx int, m *bytecode.Method) []lockSym {
	if !m.IsSynchronized() {
		return nil
	}
	if m.IsStatic() {
		return []lockSym{{kind: 1, class: m.Class.Name}}
	}
	return a.resolveLockVal(ctx, m, ipa.ValueOf(ipa.SrcParam, 0))
}

// ---------------------------------------------------------------------
// Intraprocedural monitor-stack flow.

// lockStack is the symbolic monitor stack: the pcs of the MonitorEnter
// instructions whose locks are currently held (-1 for merged/unknown).
type lockStack struct {
	pcs []int
}

type lockFlow struct{}

func (lockFlow) Entry(*analysis.Graph) lockStack { return lockStack{} }

func (lockFlow) Transfer(g *analysis.Graph, b *analysis.Block, in lockStack) (lockStack, error) {
	pcs := append([]int(nil), in.pcs...)
	for pc := b.Start; pc < b.End; pc++ {
		switch g.M.Code[pc].Op {
		case bytecode.MonitorEnter:
			pcs = append(pcs, pc)
		case bytecode.MonitorExit:
			if len(pcs) == 0 {
				return lockStack{}, fmt.Errorf("%s @%d: monitor underflow", g.M.FullName(), pc)
			}
			pcs = pcs[:len(pcs)-1]
		}
	}
	return lockStack{pcs: pcs}, nil
}

func (lockFlow) Join(g *analysis.Graph, b *analysis.Block, have, incoming lockStack) (lockStack, bool, error) {
	if len(have.pcs) != len(incoming.pcs) {
		return lockStack{}, false, fmt.Errorf("%s: monitor depth mismatch at block %d", g.M.FullName(), b.Index)
	}
	changed := false
	out := append([]int(nil), have.pcs...)
	for i := range out {
		if out[i] != incoming.pcs[i] && out[i] != -1 {
			out[i] = -1
			changed = true
		}
	}
	return lockStack{pcs: out}, changed, nil
}

// solveLocks runs the intraprocedural stacks and the interprocedural
// entry-lock intersection fixpoint.
func (a *analyzer) solveLocks() {
	for _, m := range a.ipa.Methods() {
		f := a.ipa.Facts(m)
		g := f.Graph
		if g == nil || f.NoFlow {
			continue
		}
		entries, err := analysis.Solve[lockStack](g, lockFlow{})
		if err != nil {
			continue
		}
		per := make([][]int, len(m.Code))
		bad := false
		for bi, b := range g.Blocks {
			if !g.Reachable(bi) {
				continue
			}
			cur := entries[bi].pcs
			for pc := b.Start; pc < b.End; pc++ {
				per[pc] = cur
				switch m.Code[pc].Op {
				case bytecode.MonitorEnter:
					cur = append(append([]int(nil), cur...), pc)
				case bytecode.MonitorExit:
					if len(cur) == 0 {
						bad = true
					} else {
						cur = cur[:len(cur)-1]
					}
				}
			}
		}
		if !bad {
			a.lockStacks[m.ID] = per
		}
	}

	// Entry locks: roots hold nothing; every other (ctx, method)
	// instance starts at ⊤ and intersects the held sets over all
	// in-context call edges.
	for _, m := range a.ipa.Methods() {
		for _, ctx := range a.ownersOf(m.ID) {
			key := ctxMethod{ctx, m.ID}
			if a.isRootInstance(ctx, m) {
				a.entryLocks[key] = lockSet{}
			} else {
				a.entryLocks[key] = lockTop
			}
		}
	}
	for {
		changed := false
		for _, m := range a.ipa.Methods() {
			f := a.ipa.Facts(m)
			for _, ctx := range a.ownersOf(m.ID) {
				cur := a.entryLocks[ctxMethod{ctx, m.ID}]
				if cur.top {
					continue
				}
				base := lockUnion(cur, lockSet{syms: a.syncSyms(ctx, m)})
				for i := range f.Calls {
					cf := &f.Calls[i]
					if cf.Sys {
						continue
					}
					held := lockUnion(base, a.intraSyms(ctx, m, cf.PC))
					for _, t := range cf.Targets {
						tk := ctxMethod{ctx, t.ID}
						if _, ok := a.entryLocks[tk]; !ok {
							continue
						}
						nv := lockIntersect(a.entryLocks[tk], held)
						if !lockEqual(nv, a.entryLocks[tk]) {
							a.entryLocks[tk] = nv
							changed = true
						}
					}
				}
			}
		}
		if !changed {
			break
		}
	}
}

// isRootInstance reports whether (ctx, m) is an entry the scheduler
// invokes directly: a main root in the main context, or a run() entry
// of the context's thread.
func (a *analyzer) isRootInstance(ctx int, m *bytecode.Method) bool {
	if ctx == 0 {
		return a.mainRoots[m.ID]
	}
	if !a.runMethods[m.ID] {
		return false
	}
	t := a.threads[ctx-1]
	for c := range t.recvClasses {
		if rm := ipa.RunMethod(c); rm != nil && rm.ID == m.ID {
			return true
		}
	}
	return false
}

// intraSyms resolves the locks held at pc by enclosing MonitorEnters
// within the same body.
func (a *analyzer) intraSyms(ctx int, m *bytecode.Method, pc int) lockSet {
	per := a.lockStacks[m.ID]
	if per == nil || pc >= len(per) {
		return lockSet{}
	}
	f := a.ipa.Facts(m)
	out := lockSet{}
	for _, epc := range per[pc] {
		if epc < 0 {
			continue
		}
		if v, ok := f.Monitors[epc]; ok {
			out = lockUnion(out, lockSet{syms: a.resolveLockVal(ctx, m, v)})
		}
	}
	return out
}

// locksAt is the full must-lockset of an access instance.
func (a *analyzer) locksAt(ctx int, m *bytecode.Method, pc int) lockSet {
	base := notTop(a.entryLocks[ctxMethod{ctx, m.ID}])
	base = lockUnion(base, lockSet{syms: a.syncSyms(ctx, m)})
	return lockUnion(base, a.intraSyms(ctx, m, pc))
}

// lockNames renders a lock set for reports. An empty set renders as nil
// so reports survive a JSON round trip (omitempty drops empty sets).
func (a *analyzer) lockNames(s lockSet) []string {
	if len(s.syms) == 0 {
		return nil
	}
	out := make([]string, 0, len(s.syms))
	for _, sym := range s.syms {
		out = append(out, a.lockName(sym))
	}
	sort.Strings(out)
	return out
}
