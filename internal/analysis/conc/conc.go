// Package conc implements whole-program static race and deadlock
// detection over a loaded class set, Chord-style, on top of the
// interprocedural facts from internal/analysis/ipa. It interprets no
// method body itself: its per-method facts (call sites and arguments,
// field/static/array accesses and their receivers, reference stores,
// monitor operands, spawn and join arguments, returned references) and
// CFGs are the ones ipa's abstract interpreter recorded (ipa.Facts).
//
//   - a thread-structure analysis locates every Sys.spawn site on the
//     RTA call graph and derives the abstract threads of the program
//     (main plus one per spawn site), a per-method owner set (which
//     abstract threads may execute a method), and a may-happen-in-
//     parallel relation between statement instances via a forward
//     "pending spawns" dataflow (analysis.Solve) whose join kill models
//     Sys.join on a provably unique thread id;
//   - a flow-sensitive lockset dataflow (again analysis.Solve,
//     mirroring the monitor-balance pass) tracks the symbolic monitor
//     stack through MonitorEnter/MonitorExit and synchronized-method
//     entries, and an interprocedural intersection fixpoint propagates
//     must-held locks across call edges;
//   - a shared-access census collects every field, static and array
//     access whose receiver may be reachable from more than one thread
//     (escaped per ipa and reachable from a spawn argument or a static
//     root), and reports race pairs — two accesses, at least one write,
//     may-alias receivers, may-happen-in-parallel, disjoint must-lock
//     sets — plus a lock-order graph whose cross-thread cycles are
//     potential deadlocks.
//
// The report is deliberately an over-approximation: the companion
// dynamic vector-clock oracle (oracle.go) attached to the running VM
// must never observe a race the static report misses, which is the
// differential soundness check wired into the harness
// (FuzzStaticSubsumesDynamicRaces).
//
// Analyze requires classes that have been through vm.Link: pools
// resolved, global method ids assigned, vtables built.
package conc

import (
	"fmt"
	"sort"
	"strings"

	"jrs/internal/analysis"
	"jrs/internal/analysis/ipa"
	"jrs/internal/bytecode"
)

// Access is one side of a race pair: a concrete bytecode access plus
// the abstract thread executing it and the locks provably held.
type Access struct {
	Method string   `json:"method"`
	PC     int      `json:"pc"`
	Op     string   `json:"op"`
	Thread string   `json:"thread"`
	Locks  []string `json:"locks,omitempty"`
}

// Race is one reported data race, deduplicated per abstract location:
// the first (deterministic) witness pair of conflicting accesses.
type Race struct {
	// Kind is "field", "static" or "array".
	Kind  string `json:"kind"`
	Class string `json:"class,omitempty"`
	Field string `json:"field,omitempty"`
	// Elem is the element-kind name for array locations.
	Elem   string `json:"elem,omitempty"`
	First  Access `json:"first"`
	Second Access `json:"second"`
}

// Location renders the abstract location key.
func (r *Race) Location() string {
	if r.Kind == "array" {
		return r.Elem + "[] elements"
	}
	s := r.Class + "." + r.Field
	if r.Kind == "static" {
		s += " (static)"
	}
	return s
}

// String renders the race on one line.
func (r *Race) String() string {
	return fmt.Sprintf("race on %s: %s x %s", r.Location(), r.First, r.Second)
}

// String renders one access witness.
func (a Access) String() string {
	s := fmt.Sprintf("%s @%d %s [%s]", a.Method, a.PC, a.Op, a.Thread)
	if len(a.Locks) > 0 {
		s += " locks{" + strings.Join(a.Locks, ", ") + "}"
	}
	return s
}

// LockEdge is one lock-order edge: while holding From, the thread
// acquires To at (Method, PC).
type LockEdge struct {
	From   string `json:"from"`
	To     string `json:"to"`
	Method string `json:"method"`
	PC     int    `json:"pc"`
	Thread string `json:"thread"`
}

// Deadlock is one cross-thread cycle in the lock-order graph.
type Deadlock struct {
	// Locks is the sorted set of locks on the cycle.
	Locks []string `json:"locks"`
	// Edges are the lock-order edges forming the cycle.
	Edges []LockEdge `json:"edges"`
}

// String renders the deadlock cycle on one line.
func (d *Deadlock) String() string {
	parts := make([]string, len(d.Edges))
	for i, e := range d.Edges {
		parts[i] = fmt.Sprintf("%s -> %s (%s @%d [%s])", e.From, e.To, e.Method, e.PC, e.Thread)
	}
	return "deadlock cycle: " + strings.Join(parts, ", ")
}

// Summary is the census row surfaced by `jrs analyze`.
type Summary struct {
	// Threads counts abstract spawned threads (spawn sites); main is
	// not included.
	Threads int `json:"threads"`
	// SharedLocations counts distinct abstract locations with at least
	// one access whose receiver may be thread-shared.
	SharedLocations int `json:"sharedLocations"`
	Races           int `json:"races"`
	Deadlocks       int `json:"deadlocks"`
}

// Report is the full static concurrency report for one program.
type Report struct {
	// Spawns describes each abstract thread's spawn site.
	Spawns []string `json:"spawns,omitempty"`
	// SharedLocations counts distinct abstract locations with shared
	// accesses.
	SharedLocations int        `json:"sharedLocations"`
	Races           []Race     `json:"races,omitempty"`
	Deadlocks       []Deadlock `json:"deadlocks,omitempty"`

	racySites map[ipa.Site]bool
}

// Summarize folds the report into the analyze census row.
func (r *Report) Summarize() Summary {
	return Summary{
		Threads:         len(r.Spawns),
		SharedLocations: r.SharedLocations,
		Races:           len(r.Races),
		Deadlocks:       len(r.Deadlocks),
	}
}

// RacySites returns the allocation sites whose objects participate in
// some reported race (the union of both witnesses' receiver points-to
// sets). Lock elision consults this: an elision proof for a receiver
// that can race is discarded, so static optimization never widens a
// reported race window.
func (r *Report) RacySites() map[ipa.Site]bool { return r.racySites }

// Analyze runs the full static race/deadlock pipeline.
func Analyze(classes []*bytecode.Class, res *ipa.Result) *Report {
	a := newAnalyzer(classes, res)
	a.findThreads()
	a.solveContexts()
	a.solveShared()
	a.solvePending()
	a.solveLocks()
	report := &Report{racySites: map[ipa.Site]bool{}}
	for _, t := range a.threads {
		report.Spawns = append(report.Spawns, a.threadName(t.ctx))
	}
	a.census(report)
	a.deadlocks(report)
	return report
}

// ---------------------------------------------------------------------
// Analyzer state.

// ctx identifies an abstract thread: 0 is main, i >= 1 is the thread
// spawned at a.threads[i-1].
type ctxMethod struct {
	ctx int
	mid int
}

type threadInfo struct {
	ctx  int // index into contexts; threads[i].ctx == i+1
	site ipa.Site
	m    *bytecode.Method
	pc   int
	// multi marks threads whose spawn site may execute more than once
	// (site in a loop, or containing method not a run-once root).
	multi bool
	// conservative threads may-happen-in-parallel with everything:
	// their spawn structure is not analyzable from main.
	conservative bool
	// argSet is the points-to set of the spawn argument.
	argSet siteSet
	// recvClasses are the possible receiver classes (grown during the
	// context fixpoint), each contributing its run()V to the owners of
	// this thread's context.
	recvClasses map[*bytecode.Class]bool
}

type analyzer struct {
	classes []*bytecode.Class
	ipa     *ipa.Result

	inLoop map[int][]bool // per method, per pc: inside a CFG cycle
	// calledFrom marks methods with at least one incoming call edge
	// (used to decide whether a root really runs once).
	calledFrom map[int]bool

	threads    []*threadInfo
	threadBy   map[ipa.Site]int // spawn site -> thread index
	owners     map[int]map[int]bool
	mainRoots  map[int]bool
	runMethods map[int]bool // any class's run()V entry

	fieldPts  map[fieldKey]siteSet
	staticPts map[fieldKey]siteSet
	elemPts   siteSet
	paramPts  map[ctxMethod][]siteSet
	retPts    map[ctxMethod]siteSet

	shared map[ipa.Site]bool
	// sharedAll marks a degraded census: some spawn argument or static
	// store was unknown, so any escaped site counts as shared.
	sharedAll bool

	maySpawn  map[int]threadMask
	entryPend map[int]threadMask
	pendAt    map[int][]threadMask

	entryLocks map[ctxMethod]lockSet
	lockStacks map[int][][]int // per method, per pc: enter pcs held before pc (nil = no info)
}

func newAnalyzer(classes []*bytecode.Class, res *ipa.Result) *analyzer {
	a := &analyzer{
		classes:    classes,
		ipa:        res,
		inLoop:     map[int][]bool{},
		calledFrom: map[int]bool{},
		threadBy:   map[ipa.Site]int{},
		owners:     map[int]map[int]bool{},
		mainRoots:  map[int]bool{},
		runMethods: map[int]bool{},
		fieldPts:   map[fieldKey]siteSet{},
		staticPts:  map[fieldKey]siteSet{},
		paramPts:   map[ctxMethod][]siteSet{},
		retPts:     map[ctxMethod]siteSet{},
		shared:     map[ipa.Site]bool{},
		maySpawn:   map[int]threadMask{},
		entryPend:  map[int]threadMask{},
		pendAt:     map[int][]threadMask{},
		entryLocks: map[ctxMethod]lockSet{},
		lockStacks: map[int][][]int{},
	}
	for _, m := range res.Roots {
		if res.Facts(m) != nil {
			a.mainRoots[m.ID] = true
		}
	}
	for _, m := range res.Methods() {
		if g := res.Facts(m).Graph; g != nil {
			a.inLoop[m.ID] = loopMembership(g)
		}
	}
	for _, c := range classes {
		if rm := ipa.RunMethod(c); rm != nil {
			a.runMethods[rm.ID] = true
		}
	}
	return a
}

// loopMembership marks each pc whose block lies on a CFG cycle
// (block reaches itself through at least one edge).
func loopMembership(g *analysis.Graph) []bool {
	n := len(g.Blocks)
	// reach[i][j] via simple transitive closure; method bodies are small.
	reach := make([][]bool, n)
	for i, b := range g.Blocks {
		reach[i] = make([]bool, n)
		for _, s := range b.Succs {
			reach[i][s] = true
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !reach[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if reach[k][j] {
					reach[i][j] = true
				}
			}
		}
	}
	out := make([]bool, len(g.M.Code))
	for i, b := range g.Blocks {
		if reach[i][i] {
			for pc := b.Start; pc < b.End; pc++ {
				out[pc] = true
			}
		}
	}
	return out
}

// threadName renders a context for reports.
func (a *analyzer) threadName(ctx int) string {
	if ctx == 0 {
		return "main"
	}
	t := a.threads[ctx-1]
	return fmt.Sprintf("spawn@%s@%d", t.m.FullName(), t.pc)
}

// ownersOf returns the sorted contexts that may execute m.
func (a *analyzer) ownersOf(mid int) []int {
	set := a.owners[mid]
	out := make([]int, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}
