package conc

import (
	"sort"

	"jrs/internal/analysis/ipa"
	"jrs/internal/bytecode"
)

// The shared-access census and race pairing. An abstract location is a
// (declaring class, field) pair, a static field, or an array element
// kind (arrays are pooled per element kind — deliberately coarse, and
// exactly the granularity the dynamic oracle can mirror from a bare
// address). Two accesses race when at least one writes, the receivers
// may alias, the instances may happen in parallel, and their must-lock
// sets share no lock.

// locKey is the canonical abstract location.
type locKey struct {
	// kind: "field", "static", "array".
	kind  string
	class string
	field string
	elem  string
}

func locKeyLess(x, y locKey) bool {
	if x.kind != y.kind {
		return x.kind < y.kind
	}
	if x.class != y.class {
		return x.class < y.class
	}
	if x.field != y.field {
		return x.field < y.field
	}
	return x.elem < y.elem
}

// ElemName renders an array element kind.
func ElemName(kind int) string {
	switch kind {
	case bytecode.KindInt:
		return "int"
	case bytecode.KindFloat:
		return "float"
	case bytecode.KindRef:
		return "ref"
	default:
		return "char"
	}
}

// accessInst is one census entry: an access fact instantiated under a
// context, with its globalized receiver and lockset.
type accessInst struct {
	ref   instRef
	m     *bytecode.Method
	af    *ipa.AccessFact
	recv  siteSet
	locks lockSet
}

// locOf maps an access fact to its abstract location.
func locOf(m *bytecode.Method, af *ipa.AccessFact) (locKey, bool) {
	if af.Array {
		return locKey{kind: "array", elem: ElemName(af.Elem)}, true
	}
	fr := &m.Class.Pool.Fields[af.Field]
	if fr.Resolved == nil || fr.Owner == nil {
		return locKey{}, false
	}
	if af.Static {
		return locKey{kind: "static", class: fr.Owner.Name, field: fr.Name}, true
	}
	decl := declaringOf(fr.Owner, fr.Resolved.Slot)
	return locKey{kind: "field", class: decl.Name, field: fr.Name}, true
}

// census builds the shared-access table and fills the report's races.
func (a *analyzer) census(report *Report) {
	perLoc := map[locKey][]accessInst{}
	for _, m := range a.ipa.Methods() {
		f := a.ipa.Facts(m)
		for _, ctx := range a.ownersOf(m.ID) {
			for i := range f.Accesses {
				af := &f.Accesses[i]
				inst := accessInst{
					ref: instRef{ctx: ctx, mid: m.ID, pc: af.PC},
					m:   m,
					af:  af,
				}
				if !af.Static {
					inst.recv = a.globalize(ctx, m, af.Recv)
					if !a.sharedRecv(inst.recv) {
						continue
					}
				}
				key, ok := locOf(m, af)
				if !ok {
					continue
				}
				inst.locks = a.locksAt(ctx, m, af.PC)
				perLoc[key] = append(perLoc[key], inst)
			}
		}
	}

	keys := make([]locKey, 0, len(perLoc))
	for k := range perLoc {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return locKeyLess(keys[i], keys[j]) })
	report.SharedLocations = len(keys)

	for _, key := range keys {
		insts := perLoc[key]
		// Already deterministic: methods order × sorted ctxs × pc order —
		// but make the invariant explicit.
		sort.SliceStable(insts, func(i, j int) bool {
			x, y := insts[i].ref, insts[j].ref
			if x.mid != y.mid {
				return x.mid < y.mid
			}
			if x.pc != y.pc {
				return x.pc < y.pc
			}
			return x.ctx < y.ctx
		})
		if race, ok := a.findPair(key, insts); ok {
			report.Races = append(report.Races, race)
			for _, inst := range insts {
				for _, s := range inst.recv.sites {
					report.racySites[s] = true
				}
			}
		}
	}
}

// findPair returns the first racing pair at one location.
func (a *analyzer) findPair(key locKey, insts []accessInst) (Race, bool) {
	for i := 0; i < len(insts); i++ {
		for j := i; j < len(insts); j++ {
			x, y := &insts[i], &insts[j]
			if !x.af.Write && !y.af.Write {
				continue
			}
			if !a.mhp(x.ref, y.ref) {
				continue
			}
			if key.kind != "static" && !mayAlias(x.recv, y.recv) {
				continue
			}
			if !lockDisjoint(x.locks, y.locks) {
				continue
			}
			return Race{
				Kind:   key.kind,
				Class:  key.class,
				Field:  key.field,
				Elem:   key.elem,
				First:  a.accessOf(x),
				Second: a.accessOf(y),
			}, true
		}
	}
	return Race{}, false
}

func (a *analyzer) accessOf(inst *accessInst) Access {
	return Access{
		Method: inst.m.FullName(),
		PC:     inst.af.PC,
		Op:     inst.af.Op.String(),
		Thread: a.threadName(inst.ref.ctx),
		Locks:  a.lockNames(notTop(inst.locks)),
	}
}
