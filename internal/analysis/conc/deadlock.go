package conc

import (
	"sort"

	"jrs/internal/analysis"
	"jrs/internal/bytecode"
)

// Lock-order graph. An edge A -> B records that some context acquires
// unique lock B while provably holding unique lock A (nested
// MonitorEnter, synchronized-method entry under held locks, or a call
// into a synchronized method). A strongly connected component with two
// or more locks whose edges come from at least two distinct contexts
// (or one multi-instance thread) is a potential deadlock: two threads
// can each hold one lock of the cycle and want the next.

type lockEdge struct {
	from, to lockSym
	ctx      int
	mid      int
	pc       int
}

func (a *analyzer) collectEdges() []lockEdge {
	var edges []lockEdge
	emit := func(held lockSet, acq []lockSym, ctx int, m *bytecode.Method, pc int) {
		for _, h := range held.syms {
			for _, t := range acq {
				if h == t {
					continue // reentrant acquire, not an ordering edge
				}
				edges = append(edges, lockEdge{from: h, to: t, ctx: ctx, mid: m.ID, pc: pc})
			}
		}
	}
	for _, m := range a.ipa.Methods() {
		f := a.ipa.Facts(m)
		for _, ctx := range a.ownersOf(m.ID) {
			entry := notTop(a.entryLocks[ctxMethod{ctx, m.ID}])
			sync := a.syncSyms(ctx, m)
			// Synchronized entry acquires under the caller-held set.
			emit(entry, sync, ctx, m, 0)
			base := lockUnion(entry, lockSet{syms: sync})
			// Nested MonitorEnter.
			for _, pc := range sortedPCs(f.Monitors) {
				if m.Code[pc].Op != bytecode.MonitorEnter {
					continue
				}
				held := lockUnion(base, a.intraSyms(ctx, m, pc))
				emit(held, a.resolveLockVal(ctx, m, f.Monitors[pc]), ctx, m, pc)
			}
			// Calls into synchronized methods.
			for i := range f.Calls {
				cf := &f.Calls[i]
				if cf.Sys {
					continue
				}
				held := lockUnion(base, a.intraSyms(ctx, m, cf.PC))
				if len(held.syms) == 0 {
					continue
				}
				for _, t := range cf.Targets {
					if !t.IsSynchronized() {
						continue
					}
					var acq []lockSym
					if t.IsStatic() {
						acq = []lockSym{{kind: 1, class: t.Class.Name}}
					} else if len(cf.Args) > 0 {
						acq = a.resolveLockVal(ctx, m, cf.Args[0])
					}
					emit(held, acq, ctx, m, cf.PC)
				}
			}
		}
	}
	return edges
}

// deadlocks finds cross-context cycles and fills the report.
func (a *analyzer) deadlocks(report *Report) {
	edges := a.collectEdges()
	if len(edges) == 0 {
		return
	}

	// Index the lock symbols.
	var syms []lockSym
	idx := map[lockSym]int{}
	intern := func(s lockSym) int {
		if i, ok := idx[s]; ok {
			return i
		}
		idx[s] = len(syms)
		syms = append(syms, s)
		return len(syms) - 1
	}
	for _, e := range edges {
		intern(e.from)
		intern(e.to)
	}
	adj := make([][]int, len(syms))
	for _, e := range edges {
		adj[idx[e.from]] = append(adj[idx[e.from]], idx[e.to])
	}

	comps := analysis.SCCs(adj)
	comp := make([]int, len(syms))
	for c, vs := range comps {
		for _, v := range vs {
			comp[v] = c
		}
	}
	for c, vs := range comps {
		if len(vs) < 2 {
			continue
		}
		var cycleEdges []lockEdge
		ctxs := map[int]bool{}
		multi := false
		for _, e := range edges {
			if comp[idx[e.from]] == c && comp[idx[e.to]] == c {
				cycleEdges = append(cycleEdges, e)
				ctxs[e.ctx] = true
				if e.ctx > 0 && a.threads[e.ctx-1].multi {
					multi = true
				}
			}
		}
		// A cycle needs two parties: distinct contexts, or one thread
		// context with multiple dynamic instances.
		if len(ctxs) < 2 && !multi {
			continue
		}
		d := Deadlock{}
		for _, v := range vs {
			d.Locks = append(d.Locks, a.lockName(syms[v]))
		}
		sort.Strings(d.Locks)
		seen := map[LockEdge]bool{}
		for _, e := range cycleEdges {
			le := LockEdge{
				From:   a.lockName(e.from),
				To:     a.lockName(e.to),
				Method: a.ipa.MethodByID(e.mid).FullName(),
				PC:     e.pc,
				Thread: a.threadName(e.ctx),
			}
			if !seen[le] {
				seen[le] = true
				d.Edges = append(d.Edges, le)
			}
		}
		sort.Slice(d.Edges, func(i, j int) bool {
			x, y := d.Edges[i], d.Edges[j]
			if x.From != y.From {
				return x.From < y.From
			}
			if x.To != y.To {
				return x.To < y.To
			}
			if x.Method != y.Method {
				return x.Method < y.Method
			}
			if x.PC != y.PC {
				return x.PC < y.PC
			}
			return x.Thread < y.Thread
		})
		report.Deadlocks = append(report.Deadlocks, d)
	}
}
