// Package ipa implements whole-program interprocedural analysis over a
// loaded class set: a rapid-type-analysis call graph (direct edges for
// invokestatic/invokespecial, CHA-resolved target sets for
// invokevirtual restricted to instantiated receivers), the per-method
// abstract interpreter whose facts every whole-program analysis reads
// (see Facts), single-target devirtualization facts, a
// flow-insensitive interprocedural escape pass driving lock elision,
// and per-method side-effect summaries cached bottom-up over SCCs of
// the call graph.
//
// The paper's two sharpest costs — indirect-jump mispredictions from
// virtual dispatch (§4.2, Table 2) and thread-local lock operations
// (§5, Figure 11) — are exactly what these facts remove: a devirtualized
// site compiles to a direct call instead of a vtable-indexed indirect
// jump, and a monitor operation on a provably non-escaping object can
// be dropped before the monitor subsystem ever sees it.
//
// Analyze requires classes that have been through vm.Load: pools
// resolved, global method ids assigned, vtables materialized.
package ipa

import (
	"sort"

	"jrs/internal/bytecode"
)

// Site identifies one instruction: the containing method's global id
// and the instruction index within its Code slice.
type Site struct {
	Method int
	PC     int
}

// Effect is a method's transitive side-effect summary bitmask.
type Effect uint8

const (
	EffReadHeap  Effect = 1 << iota // reads a field, static, or array element
	EffWriteHeap                    // writes a field, static, or array element
	EffAlloc                        // allocates an object or array
	EffLock                         // enters/exits a monitor (incl. synchronized)
	EffIO                           // produces output via a Sys print intrinsic
	EffThread                       // spawns, joins, or yields
)

// String renders the mask as a fixed-width "RWALIT" flag string.
func (e Effect) String() string {
	const letters = "RWALIT"
	b := []byte("------")
	for i := 0; i < len(letters); i++ {
		if e&(1<<i) != 0 {
			b[i] = letters[i]
		}
	}
	return string(b)
}

// Pure reports whether the method is observably side-effect free: it
// may read the heap and allocate, but never writes, locks, prints, or
// touches threads.
func (e Effect) Pure() bool {
	return e&(EffWriteHeap|EffLock|EffIO|EffThread) == 0
}

// Result holds every interprocedural fact for one program.
type Result struct {
	// Reachable and Instantiated are the RTA fixpoint: methods callable
	// from any static niladic main (plus run()V of instantiated classes
	// once Sys.spawn is reachable), and classes with a reachable New.
	Reachable    map[*bytecode.Method]bool
	Instantiated map[*bytecode.Class]bool
	Roots        []*bytecode.Method

	// Targets maps each reachable invokevirtual site to its CHA target
	// set over instantiated receivers, sorted by method id.
	Targets map[Site][]*bytecode.Method

	// Devirt maps virtual sites proven single-target (CHA singleton, or
	// exact receiver type from the abstract interpreter) to that target.
	Devirt map[Site]*bytecode.Method

	// AllocClass records every reachable allocation site (nil class for
	// arrays); Escaped marks the sites whose reference leaves the
	// allocating stack: stored into any heap location, returned,
	// spawned as a thread, or passed to a parameter that escapes.
	AllocClass map[Site]*bytecode.Class
	Escaped    map[Site]bool

	// ParamEscapes[m][i] is true when m may let its i-th argument slot
	// (receiver included) escape. Effects is the transitive summary.
	ParamEscapes map[*bytecode.Method][]bool
	Effects      map[*bytecode.Method]Effect

	// SCCs lists call-graph components callee-first (reverse
	// topological order of the condensation).
	SCCs [][]*bytecode.Method

	// ElideCalls maps invokevirtual sites whose receiver is a
	// thread-local allocation and whose unique target is synchronized:
	// the lock is provably uncontended and the call may bind to an
	// unsynchronized twin. ElideMonitors marks methods in which every
	// monitorenter/monitorexit operand is a thread-local allocation, so
	// all of the method's monitor bytecodes may be dropped together.
	ElideCalls    map[Site]*bytecode.Method
	ElideMonitors map[*bytecode.Method]bool

	// ElideRecv maps each ElideCalls site to the receiver allocation
	// site the proof rests on; ElideMonitorSites lists the allocation
	// sites backing an ElideMonitors verdict. Downstream safety checks
	// (the race analysis cross-check) key their vetoes on these sites.
	ElideRecv         map[Site]Site
	ElideMonitorSites map[*bytecode.Method][]Site

	classes   []*bytecode.Class
	byID      map[int]*bytecode.Method
	byName    map[string]*bytecode.Class
	methods   []*bytecode.Method // interpreted methods, by id
	facts     map[*bytecode.Method]*MethodFacts
	spawnUsed bool
}

// Analyze runs the whole pipeline over a loaded class set.
func Analyze(classes []*bytecode.Class) *Result {
	r := &Result{
		Reachable:         map[*bytecode.Method]bool{},
		Instantiated:      map[*bytecode.Class]bool{},
		Targets:           map[Site][]*bytecode.Method{},
		Devirt:            map[Site]*bytecode.Method{},
		AllocClass:        map[Site]*bytecode.Class{},
		Escaped:           map[Site]bool{},
		ParamEscapes:      map[*bytecode.Method][]bool{},
		Effects:           map[*bytecode.Method]Effect{},
		ElideCalls:        map[Site]*bytecode.Method{},
		ElideMonitors:     map[*bytecode.Method]bool{},
		ElideRecv:         map[Site]Site{},
		ElideMonitorSites: map[*bytecode.Method][]Site{},
		classes:           classes,
		byID:              map[int]*bytecode.Method{},
		byName:            map[string]*bytecode.Class{},
		facts:             map[*bytecode.Method]*MethodFacts{},
	}
	for _, c := range classes {
		r.byName[c.Name] = c
		for _, m := range c.Methods {
			r.byID[m.ID] = m
		}
	}
	r.buildCallGraph()
	r.collectFacts()
	r.condense()
	r.solveEscapes()
	r.solveEffects()
	r.decideDevirt()
	r.decideElision()
	return r
}

// MethodByID resolves a global method id within the analyzed set.
func (r *Result) MethodByID(id int) *bytecode.Method { return r.byID[id] }

// Methods lists the interpreted methods — every reachable non-Sys
// method with code — in method-id order.
func (r *Result) Methods() []*bytecode.Method { return r.methods }

// Facts returns the abstract interpreter's facts for m, or nil when m
// was not interpreted.
func (r *Result) Facts(m *bytecode.Method) *MethodFacts { return r.facts[m] }

// DevirtTargetID returns the proven unique target of the invokevirtual
// at (method id, instruction index), or nil when the site stays
// polymorphic. This is the fact the JIT consumes.
func (r *Result) DevirtTargetID(id, pc int) *bytecode.Method {
	return r.Devirt[Site{id, pc}]
}

// buildCallGraph runs the RTA fixpoint: repeatedly rescan reachable
// method bodies, growing the reachable-method and instantiated-class
// sets and the per-site virtual target sets until nothing changes.
// Roots are every static niladic main (vm.LookupMain picks one, but
// which one depends on load order, so all are kept); once Sys.spawn is
// reachable, run()V of every instantiated class is a root too.
func (r *Result) buildCallGraph() {
	for _, c := range r.classes {
		for _, m := range c.Methods {
			if m.IsStatic() && m.Name == "main" && len(m.Sig.Params) == 0 {
				r.Roots = append(r.Roots, m)
			}
		}
	}
	sort.Slice(r.Roots, func(i, j int) bool { return r.Roots[i].ID < r.Roots[j].ID })

	changed := true
	mark := func(m *bytecode.Method) {
		if m != nil && !r.Reachable[m] {
			r.Reachable[m] = true
			changed = true
		}
	}
	for changed {
		changed = false
		for _, m := range r.Roots {
			mark(m)
		}
		if r.spawnUsed {
			for _, c := range r.classes {
				if r.Instantiated[c] {
					mark(RunMethod(c))
				}
			}
		}
		for _, c := range r.classes {
			for _, m := range c.Methods {
				if !r.Reachable[m] || m.Class.Name == "Sys" {
					continue
				}
				for pc, ins := range m.Code {
					switch ins.Op {
					case bytecode.New:
						cls := m.Class.Pool.Classes[ins.A].Resolved
						if cls != nil && !r.Instantiated[cls] {
							r.Instantiated[cls] = true
							changed = true
						}
					case bytecode.InvokeStatic, bytecode.InvokeSpecial:
						callee := m.Class.Pool.Methods[ins.A].Resolved
						if callee == nil {
							continue
						}
						if callee.Class.Name == "Sys" {
							if callee.Name == "spawn" && !r.spawnUsed {
								r.spawnUsed = true
								changed = true
							}
							continue
						}
						mark(callee)
					case bytecode.InvokeVirtual:
						ref := &m.Class.Pool.Methods[ins.A]
						callee := ref.Resolved
						if callee == nil || callee.VIndex < 0 {
							continue
						}
						// The receiver's static type is the class named
						// at the site, which may be a subtype of the
						// class resolution found the method in.
						named := r.byName[ref.Class]
						if named == nil {
							named = callee.Class
						}
						site := Site{m.ID, pc}
						ts := r.virtualTargets(named, callee.VIndex)
						if len(ts) != len(r.Targets[site]) {
							r.Targets[site] = ts
							changed = true
						}
						for _, t := range ts {
							mark(t)
						}
					}
				}
			}
		}
	}
}

// virtualTargets is the CHA set restricted to instantiated receivers:
// the distinct vtable entries at vidx over instantiated subclasses of
// the receiver's static type.
func (r *Result) virtualTargets(named *bytecode.Class, vidx int) []*bytecode.Method {
	var ts []*bytecode.Method
	seen := map[*bytecode.Method]bool{}
	for _, c := range r.classes {
		if !r.Instantiated[c] || !descends(c, named) || vidx >= len(c.VTable) {
			continue
		}
		if t := c.VTable[vidx]; t != nil && !seen[t] {
			seen[t] = true
			ts = append(ts, t)
		}
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].ID < ts[j].ID })
	return ts
}

func descends(c, anc *bytecode.Class) bool {
	for ; c != nil; c = c.Super {
		if c == anc {
			return true
		}
	}
	return false
}

// RunMethod finds the run()V entry vm uses for threads spawned on an
// object of class c.
func RunMethod(c *bytecode.Class) *bytecode.Method {
	for _, m := range c.VTable {
		if m.Name == "run" && len(m.Sig.Params) == 0 && m.Sig.Ret == bytecode.TVoid {
			return m
		}
	}
	return nil
}

// siteTargets returns the possible callees of one call site.
func (r *Result) siteTargets(m *bytecode.Method, cf *CallFact) []*bytecode.Method {
	switch {
	case cf.Sys:
		return nil
	case cf.Virtual:
		return r.Targets[Site{m.ID, cf.PC}]
	}
	return []*bytecode.Method{cf.Callee}
}

// decideDevirt fills Devirt: CHA singletons plus exact-receiver-type
// sites where the abstract interpreter pinned the receiver to a single
// allocation.
func (r *Result) decideDevirt() {
	for site, ts := range r.Targets {
		if len(ts) == 1 {
			r.Devirt[site] = ts[0]
			continue
		}
		m := r.byID[site.Method]
		f := r.facts[m]
		if f == nil {
			continue
		}
		cf := f.CallAt(site.PC)
		if cf == nil || len(cf.Args) == 0 {
			continue
		}
		if id, ok := cf.Args[0].Single(SrcAlloc); ok {
			cls := r.AllocClass[Site{m.ID, id}]
			if cls != nil && cf.Callee.VIndex >= 0 && cf.Callee.VIndex < len(cls.VTable) {
				r.Devirt[site] = cls.VTable[cf.Callee.VIndex]
			}
		}
	}
}

// decideElision fills ElideCalls and ElideMonitors from the escape
// facts. Call-site elision requires an exact thread-local receiver and
// a synchronized unique target; monitor elision is all-or-nothing per
// method so enter/exit pairing is preserved trivially.
func (r *Result) decideElision() {
	for _, m := range r.methods {
		f := r.facts[m]
		for i := range f.Calls {
			cf := &f.Calls[i]
			if !cf.Virtual || len(cf.Args) == 0 {
				continue
			}
			id, ok := cf.Args[0].Single(SrcAlloc)
			if !ok {
				continue
			}
			as := Site{m.ID, id}
			cls := r.AllocClass[as]
			if cls == nil || r.Escaped[as] {
				continue
			}
			if cf.Callee.VIndex < 0 || cf.Callee.VIndex >= len(cls.VTable) {
				continue
			}
			if t := cls.VTable[cf.Callee.VIndex]; t.IsSynchronized() {
				r.ElideCalls[Site{m.ID, cf.PC}] = t
				r.ElideRecv[Site{m.ID, cf.PC}] = as
			}
		}
		r.decideMonitorElision(m, f)
	}
}

func (r *Result) decideMonitorElision(m *bytecode.Method, f *MethodFacts) {
	total := 0
	for _, ins := range m.Code {
		if ins.Op == bytecode.MonitorEnter || ins.Op == bytecode.MonitorExit {
			total++
		}
	}
	if total == 0 {
		return
	}
	// Every monitor operand in the method must be a provably
	// thread-local allocation (class or array), including operands in
	// code the abstract interpreter never reached.
	if len(f.Monitors) != total {
		return
	}
	var sites []Site
	for _, v := range f.Monitors {
		if v.Unknown || len(v.Srcs) == 0 {
			return
		}
		for _, src := range v.Srcs {
			if src.Kind != SrcAlloc || r.Escaped[Site{m.ID, int(src.A)}] {
				return
			}
			sites = append(sites, Site{m.ID, int(src.A)})
		}
	}
	r.ElideMonitors[m] = true
	r.ElideMonitorSites[m] = sites
}
