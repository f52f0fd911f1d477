package conc

import (
	"cmp"
	"slices"
	"sort"

	"jrs/internal/analysis/ipa"
	"jrs/internal/bytecode"
)

// The context/points-to layer. Contexts are abstract threads: 0 for
// main, one per spawn site. A combined monotone fixpoint grows, until
// stable:
//
//   - owners[mid]: which contexts may execute a method (call edges
//     propagate the caller's contexts; a spawn site adds its thread's
//     context to the receiver classes' run()V);
//   - flow-insensitive points-to maps: per-(declaring class, slot)
//     field sets, per-static sets, one coarse array-element set, and
//     per-(ctx, method) parameter/return sets. Everything bottoms out
//     in ipa allocation sites, with an unknown bit that is never
//     dropped — the race census treats unknown receivers as
//     potentially shared, which keeps the static report a sound
//     over-approximation of anything the dynamic oracle can see.

// fieldKey names an abstract field location by its declaring class and
// slot, matching how the dynamic oracle attributes a heap address.
type fieldKey struct {
	class  string
	slot   int
	static bool
}

// siteSet is a set of allocation sites plus an unknown bit; sites is
// sorted.
type siteSet struct {
	unknown bool
	sites   []ipa.Site
}

func cmpSite(a, b ipa.Site) int {
	if a.Method != b.Method {
		return cmp.Compare(a.Method, b.Method)
	}
	return cmp.Compare(a.PC, b.PC)
}

func joinSites(a, b siteSet) siteSet {
	if len(b.sites) == 0 && !b.unknown {
		return a
	}
	out := siteSet{unknown: a.unknown || b.unknown}
	out.sites = append(append([]ipa.Site(nil), a.sites...), b.sites...)
	slices.SortFunc(out.sites, cmpSite)
	out.sites = slices.Compact(out.sites)
	return out
}

func equalSites(a, b siteSet) bool {
	return a.unknown == b.unknown && slices.Equal(a.sites, b.sites)
}

// mayAlias reports whether two receiver sets can name the same object.
func mayAlias(a, b siteSet) bool {
	if a.unknown || b.unknown {
		return true
	}
	i, j := 0, 0
	for i < len(a.sites) && j < len(b.sites) {
		switch {
		case a.sites[i] == b.sites[j]:
			return true
		case cmpSite(a.sites[i], b.sites[j]) < 0:
			i++
		default:
			j++
		}
	}
	return false
}

// declaringOf climbs from a class to the one that declared instance
// slot — the canonical owner both the static keys and the dynamic
// oracle's address attribution use.
func declaringOf(cl *bytecode.Class, slot int) *bytecode.Class {
	for cl.Super != nil && slot < len(cl.Super.AllFields) {
		cl = cl.Super
	}
	return cl
}

// fieldKeyOf resolves a pool field index to its abstract location. The
// loader's Owner is the *referenced* class for instance fields, so the
// key climbs to the declaring class (statics already resolve there).
func fieldKeyOf(m *bytecode.Method, idx int32) (fieldKey, bool) {
	fr := &m.Class.Pool.Fields[idx]
	if fr.Resolved == nil || fr.Owner == nil {
		return fieldKey{}, false
	}
	if fr.Static {
		return fieldKey{class: fr.Owner.Name, slot: fr.Resolved.Slot, static: true}, true
	}
	decl := declaringOf(fr.Owner, fr.Resolved.Slot)
	return fieldKey{class: decl.Name, slot: fr.Resolved.Slot}, true
}

// globalize lifts a per-method abstract value to a set of allocation
// sites under one context, resolving heap members through the global
// points-to maps and call results through return summaries.
func (a *analyzer) globalize(ctx int, m *bytecode.Method, v ipa.Value) siteSet {
	out := siteSet{unknown: v.Unknown}
	for _, src := range v.Srcs {
		switch src.Kind {
		case ipa.SrcNull, ipa.SrcTid:
		case ipa.SrcAlloc:
			out = joinSites(out, siteSet{sites: []ipa.Site{{Method: m.ID, PC: int(src.A)}}})
		case ipa.SrcParam:
			pp := a.paramPts[ctxMethod{ctx, m.ID}]
			if int(src.A) < len(pp) {
				out = joinSites(out, pp[src.A])
			}
		case ipa.SrcField:
			if k, ok := fieldKeyOf(m, src.A); ok {
				out = joinSites(out, a.fieldPts[k])
			} else {
				out.unknown = true
			}
		case ipa.SrcStatic:
			if k, ok := fieldKeyOf(m, src.A); ok {
				out = joinSites(out, a.staticPts[k])
			} else {
				out.unknown = true
			}
		case ipa.SrcElem:
			out = joinSites(out, a.elemPts)
		case ipa.SrcCall:
			if cf := a.ipa.Facts(m).CallAt(int(src.A)); cf != nil {
				for _, t := range cf.Targets {
					out = joinSites(out, a.retPts[ctxMethod{ctx, t.ID}])
				}
			} else {
				out.unknown = true
			}
		}
	}
	return out
}

// findThreads enumerates spawn sites in deterministic order.
func (a *analyzer) findThreads() {
	for _, m := range a.ipa.Methods() {
		f := a.ipa.Facts(m)
		for i := range f.Calls {
			if _, ok := f.Calls[i].SysArg("spawn"); !ok {
				continue
			}
			pc := f.Calls[i].PC
			t := &threadInfo{
				ctx:         len(a.threads) + 1,
				site:        ipa.Site{Method: m.ID, PC: pc},
				m:           m,
				pc:          pc,
				recvClasses: map[*bytecode.Class]bool{},
			}
			a.threadBy[t.site] = len(a.threads)
			a.threads = append(a.threads, t)
		}
	}
}

func (a *analyzer) addOwner(mid, ctx int) bool {
	s := a.owners[mid]
	if s == nil {
		s = map[int]bool{}
		a.owners[mid] = s
	}
	if s[ctx] {
		return false
	}
	s[ctx] = true
	return true
}

func (a *analyzer) mergeParam(ctx, mid, i, n int, s siteSet) bool {
	key := ctxMethod{ctx, mid}
	pp := a.paramPts[key]
	for len(pp) < n {
		pp = append(pp, siteSet{})
	}
	j := joinSites(pp[i], s)
	changed := !equalSites(j, pp[i])
	pp[i] = j
	a.paramPts[key] = pp
	return changed
}

// solveContexts runs the combined owners + points-to fixpoint, then
// finalizes per-thread multiplicity flags.
func (a *analyzer) solveContexts() {
	for mid := range a.mainRoots {
		a.addOwner(mid, 0)
	}
	for a.sweep() {
	}

	for _, t := range a.threads {
		// exclusive main-root spawn: the site runs at most once (modulo
		// loops), in program order with main's joins — the only shape the
		// pending-spawn flow can reason about.
		exclusive := a.mainRoots[t.m.ID] && !a.calledFrom[t.m.ID] && a.ownersExactly(t.m.ID, 0)
		t.conservative = !exclusive
		t.multi = t.conservative || a.siteInLoop(t.m.ID, t.pc)
	}
}

func (a *analyzer) ownersExactly(mid, ctx int) bool {
	s := a.owners[mid]
	return len(s) == 1 && s[ctx]
}

func (a *analyzer) siteInLoop(mid, pc int) bool {
	l := a.inLoop[mid]
	if l == nil || pc >= len(l) {
		return true
	}
	return l[pc]
}

// sweep performs one monotone pass; reports change.
func (a *analyzer) sweep() bool {
	changed := false
	for _, m := range a.ipa.Methods() {
		f := a.ipa.Facts(m)
		for _, ctx := range a.ownersOf(m.ID) {
			// Call edges: owners and parameter sets flow to callees.
			for i := range f.Calls {
				cf := &f.Calls[i]
				for _, t := range cf.Targets {
					if a.ipa.Facts(t) == nil {
						continue
					}
					if a.addOwner(t.ID, ctx) {
						changed = true
					}
					a.calledFrom[t.ID] = true
					for j, arg := range cf.Args {
						if a.mergeParam(ctx, t.ID, j, len(cf.Args), a.globalize(ctx, m, arg)) {
							changed = true
						}
					}
				}
			}
			// Reference stores feed the global points-to maps.
			for i := range f.Accesses {
				af := &f.Accesses[i]
				if !af.Write || !af.Ref {
					continue
				}
				s := a.globalize(ctx, m, af.Stored)
				if af.Array {
					if j := joinSites(a.elemPts, s); !equalSites(j, a.elemPts) {
						a.elemPts = j
						changed = true
					}
					continue
				}
				pts := a.fieldPts
				if af.Static {
					pts = a.staticPts
				}
				if k, ok := fieldKeyOf(m, af.Field); ok {
					if j := joinSites(pts[k], s); !equalSites(j, pts[k]) {
						pts[k] = j
						changed = true
					}
				}
			}
			// Return summary.
			if f.Returns.Unknown || len(f.Returns.Srcs) > 0 {
				key := ctxMethod{ctx, m.ID}
				j := joinSites(a.retPts[key], a.globalize(ctx, m, f.Returns))
				if !equalSites(j, a.retPts[key]) {
					a.retPts[key] = j
					changed = true
				}
			}
			// Spawn sites: grow the thread's receiver classes and root its
			// context at the run()V entries.
			for i := range f.Calls {
				arg, ok := f.Calls[i].SysArg("spawn")
				if !ok {
					continue
				}
				t := a.threads[a.threadBy[ipa.Site{Method: m.ID, PC: f.Calls[i].PC}]]
				s := a.globalize(ctx, m, arg)
				if j := joinSites(t.argSet, s); !equalSites(j, t.argSet) {
					t.argSet = j
					changed = true
				}
				for _, c := range a.receiverClasses(s) {
					rm := ipa.RunMethod(c)
					if rm == nil || a.ipa.Facts(rm) == nil {
						continue
					}
					if !t.recvClasses[c] {
						t.recvClasses[c] = true
						changed = true
					}
					if a.addOwner(rm.ID, t.ctx) {
						changed = true
					}
					if a.mergeParam(t.ctx, rm.ID, 0, 1, s) {
						changed = true
					}
				}
			}
		}
	}
	return changed
}

// receiverClasses resolves a spawn argument set to candidate Runnable
// classes; an unknown argument means any instantiated class with run().
func (a *analyzer) receiverClasses(s siteSet) []*bytecode.Class {
	var out []*bytecode.Class
	if s.unknown {
		for _, c := range a.classes {
			if a.ipa.Instantiated[c] && ipa.RunMethod(c) != nil {
				out = append(out, c)
			}
		}
		return out
	}
	seen := map[*bytecode.Class]bool{}
	for _, site := range s.sites {
		c := a.ipa.AllocClass[site]
		if c != nil && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// solveShared computes the thread-shared allocation sites: everything
// reachable (through fields and array elements) from a spawn argument
// or a static root. This refines ipa.Escaped — an escaped-but-
// main-local object (e.g. one returned from a helper) cannot race.
func (a *analyzer) solveShared() {
	var queue []ipa.Site
	add := func(s siteSet) {
		if s.unknown {
			a.sharedAll = true
		}
		for _, site := range s.sites {
			if !a.shared[site] {
				a.shared[site] = true
				queue = append(queue, site)
			}
		}
	}
	for _, t := range a.threads {
		add(t.argSet)
	}
	keys := make([]fieldKey, 0, len(a.staticPts))
	for k := range a.staticPts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return fieldKeyLess(keys[i], keys[j]) })
	for _, k := range keys {
		add(a.staticPts[k])
	}
	for len(queue) > 0 {
		site := queue[0]
		queue = queue[1:]
		c := a.ipa.AllocClass[site]
		if c == nil {
			// Array: anything ever stored into any array element.
			add(a.elemPts)
			continue
		}
		for cls := c; cls != nil; cls = cls.Super {
			for _, fld := range cls.Fields {
				if fld.Type != bytecode.TRef {
					continue
				}
				add(a.fieldPts[fieldKey{class: cls.Name, slot: fld.Slot}])
			}
		}
	}
}

func fieldKeyLess(x, y fieldKey) bool {
	if x.class != y.class {
		return x.class < y.class
	}
	if x.slot != y.slot {
		return x.slot < y.slot
	}
	return !x.static && y.static
}

// sharedRecv reports whether an access receiver may name a
// thread-shared object.
func (a *analyzer) sharedRecv(s siteSet) bool {
	if s.unknown {
		return true
	}
	for _, site := range s.sites {
		if a.shared[site] {
			return true
		}
		if a.sharedAll && a.ipa.Escaped[site] {
			return true
		}
	}
	return false
}
