package ipa

import (
	"sort"

	"jrs/internal/analysis"
	"jrs/internal/bytecode"
)

// condense splits the reachable call graph into strongly connected
// components, stored in Tarjan's emission order, which is reverse
// topological: every SCC appears after all SCCs it calls into. The
// bottom-up solvers walk this order so callee summaries are (mostly)
// final before callers read them; cycles converge in the outer
// fixpoint.
func (r *Result) condense() {
	vertex := make(map[*bytecode.Method]int, len(r.methods))
	for i, m := range r.methods {
		vertex[m] = i
	}
	adj := make([][]int, len(r.methods))
	for i, m := range r.methods {
		f := r.facts[m]
		for j := range f.Calls {
			for _, t := range f.Calls[j].Targets {
				if v, ok := vertex[t]; ok {
					adj[i] = append(adj[i], v)
				}
			}
		}
	}
	for _, comp := range analysis.SCCs(adj) {
		sort.Ints(comp)
		scc := make([]*bytecode.Method, len(comp))
		for i, v := range comp {
			scc[i] = r.methods[v]
		}
		r.SCCs = append(r.SCCs, scc)
	}
}

// solveEscapes propagates escape facts to a fixpoint. A value escapes
// when it is stored into any heap location, returned, handed to
// Sys.spawn, or passed to an argument slot some possible callee lets
// escape. Walking SCCs callee-first makes the common acyclic case
// converge in one outer pass.
func (r *Result) solveEscapes() {
	changed := true
	for changed {
		changed = false
		for _, scc := range r.SCCs {
			for _, m := range scc {
				f := r.facts[m]
				for i := range f.Accesses {
					if af := &f.Accesses[i]; af.Write && af.Ref {
						changed = r.escape(m, af.Stored) || changed
					}
				}
				changed = r.escape(m, f.Returns) || changed
				for i := range f.Calls {
					cf := &f.Calls[i]
					if v, ok := cf.SysArg("spawn"); ok {
						changed = r.escape(m, v) || changed
					}
					if cf.Sys {
						continue // only spawn captures
					}
					for j, av := range cf.Args {
						if refSlot(cf.Callee, j) && r.argEscapes(cf.Targets, j) {
							changed = r.escape(m, av) || changed
						}
					}
				}
			}
		}
	}
}

// refSlot reports whether argument slot j of m (receiver included)
// holds a reference: only references can escape.
func refSlot(m *bytecode.Method, j int) bool {
	if !m.IsStatic() {
		if j == 0 {
			return true
		}
		j--
	}
	return j < len(m.Sig.Params) && m.Sig.Params[j] == bytecode.TRef
}

// argEscapes reports whether argument slot j may escape through any of
// the possible callees; a callee without a summary is conservative.
func (r *Result) argEscapes(targets []*bytecode.Method, j int) bool {
	for _, t := range targets {
		pe, ok := r.ParamEscapes[t]
		if !ok || j >= len(pe) || pe[j] {
			return true
		}
	}
	return false
}

// escape marks every allocation and parameter source of v escaped in
// m's frame; the other source kinds name values already in the heap.
func (r *Result) escape(m *bytecode.Method, v Value) bool {
	changed := false
	for _, src := range v.Srcs {
		switch id := int(src.A); src.Kind {
		case SrcAlloc:
			s := Site{m.ID, id}
			if !r.Escaped[s] {
				r.Escaped[s] = true
				changed = true
			}
		case SrcParam:
			pe := r.ParamEscapes[m]
			if id < len(pe) && !pe[id] {
				pe[id] = true
				changed = true
			}
		}
	}
	return changed
}

// solveEffects folds callee summaries into callers bottom-up.
func (r *Result) solveEffects() {
	changed := true
	for changed {
		changed = false
		for _, scc := range r.SCCs {
			for _, m := range scc {
				f := r.facts[m]
				e := f.Intra
				for i := range f.Calls {
					cf := &f.Calls[i]
					if cf.Sys {
						e |= sysEffect(cf.Callee.Name)
					}
					for _, t := range cf.Targets {
						e |= r.Effects[t]
					}
				}
				if e != r.Effects[m] {
					r.Effects[m] = e
					changed = true
				}
			}
		}
	}
}

func sysEffect(name string) Effect {
	switch name {
	case "print", "printi", "printf", "printc":
		return EffIO
	case "spawn":
		return EffThread | EffAlloc
	case "join", "yield":
		return EffThread
	}
	return 0
}

// Summary is the call-graph census the analyze report prints. Field
// order (and the json tags) is the `jrs analyze -json` contract.
type Summary struct {
	Classes             int `json:"classes"`
	Methods             int `json:"methods"`
	Reachable           int `json:"reachable"`
	Instantiated        int `json:"instantiated"`
	DirectEdges         int `json:"directEdges"`
	VirtualSites        int `json:"virtualSites"`
	VirtualEdges        int `json:"virtualEdges"`
	MonoSites           int `json:"monoSites"`   // CHA target set of size one
	DevirtSites         int `json:"devirtSites"` // Mono plus exact-receiver proofs
	SCCs                int `json:"sccs"`
	LargestSCC          int `json:"largestSCC"`
	AllocSites          int `json:"allocSites"`
	LocalAllocs         int `json:"localAllocs"`
	ElideCallSites      int `json:"elideCallSites"`
	ElideMonitorMethods int `json:"elideMonitorMethods"`
	PureMethods         int `json:"pureMethods"`
}

// Summarize computes the census over the final fact maps.
func (r *Result) Summarize() Summary {
	s := Summary{Classes: len(r.classes)}
	for _, c := range r.classes {
		s.Methods += len(c.Methods)
	}
	s.Reachable = len(r.Reachable)
	s.Instantiated = len(r.Instantiated)
	for _, ts := range r.Targets {
		s.VirtualSites++
		s.VirtualEdges += len(ts)
		if len(ts) == 1 {
			s.MonoSites++
		}
	}
	s.DevirtSites = len(r.Devirt)
	for _, m := range r.methods {
		f := r.facts[m]
		for i := range f.Calls {
			if cf := &f.Calls[i]; !cf.Virtual && !cf.Sys {
				s.DirectEdges++
			}
		}
	}
	s.SCCs = len(r.SCCs)
	for _, scc := range r.SCCs {
		if len(scc) > s.LargestSCC {
			s.LargestSCC = len(scc)
		}
	}
	s.AllocSites = len(r.AllocClass)
	for site := range r.AllocClass {
		if !r.Escaped[site] {
			s.LocalAllocs++
		}
	}
	s.ElideCallSites = len(r.ElideCalls)
	s.ElideMonitorMethods = len(r.ElideMonitors)
	for _, e := range r.Effects {
		if e.Pure() {
			s.PureMethods++
		}
	}
	return s
}

// SiteFact is one (site, target) fact rendered for reports.
type SiteFact struct {
	Caller *bytecode.Method
	PC     int
	Target *bytecode.Method
}

func (r *Result) sortedSiteFacts(m map[Site]*bytecode.Method) []SiteFact {
	out := make([]SiteFact, 0, len(m))
	for site, t := range m {
		out = append(out, SiteFact{Caller: r.byID[site.Method], PC: site.PC, Target: t})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Caller.ID != b.Caller.ID {
			return a.Caller.ID < b.Caller.ID
		}
		return a.PC < b.PC
	})
	return out
}

// SortedDevirt lists devirtualized sites in (method id, pc) order.
func (r *Result) SortedDevirt() []SiteFact { return r.sortedSiteFacts(r.Devirt) }

// SortedElideCalls lists elidable synchronized call sites in order.
func (r *Result) SortedElideCalls() []SiteFact { return r.sortedSiteFacts(r.ElideCalls) }

// SortedElideMonitors lists methods whose monitor bytecodes are
// elidable, in method-id order.
func (r *Result) SortedElideMonitors() []*bytecode.Method {
	out := make([]*bytecode.Method, 0, len(r.ElideMonitors))
	for m := range r.ElideMonitors {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MethodEffect pairs a method with its transitive summary.
type MethodEffect struct {
	Method *bytecode.Method
	Effect Effect
}

// SortedEffects lists reachable-method summaries in method-id order.
func (r *Result) SortedEffects() []MethodEffect {
	out := make([]MethodEffect, 0, len(r.Effects))
	for m, e := range r.Effects {
		out = append(out, MethodEffect{Method: m, Effect: e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Method.ID < out[j].Method.ID })
	return out
}
