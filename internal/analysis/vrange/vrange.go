package vrange

import (
	"errors"
	"math"
	"sort"

	"jrs/internal/analysis"
	"jrs/internal/analysis/ipa"
	"jrs/internal/bytecode"
)

// origin identifies the dynamic value a symbolic fact is about: the
// most recent value produced by one value-producing instruction (pc
// origins, >= 0) or one incoming parameter (param origins, <= -2).
// noOrigin (-1) marks values with no tracked identity. When a pc
// origin's defining instruction re-executes, every fact mentioning it
// is killed and every other slot still carrying it is stripped, so an
// origin always denotes a single dynamic value — which makes the
// symbolic length facts (len(o) is immutable per value) sound across
// loop iterations.
type origin = int32

const noOrigin origin = -1

func paramOrigin(i int) origin { return origin(-2 - i) }

// aval is the abstract value of one stack or local slot. Integer slots
// use iv plus the symbolic facts (eqLen: value == len(o); lt: value <
// len(o) for each listed origin). Reference slots use null and orig.
// from records which local the value was loaded from (and that the
// local is unchanged since), so branch refinements and post-
// dereference non-null facts propagate back to the local.
type aval struct {
	iv    Interval
	null  Nullness
	orig  origin
	from  int16
	eqLen origin
	lt    []origin
}

func top() aval {
	return aval{iv: Full(), null: MaybeNull, orig: noOrigin, from: -1, eqLen: noOrigin}
}

func intVal(iv Interval) aval {
	v := top()
	v.iv = iv
	return v
}

func hasOrigin(set []origin, o origin) bool {
	for _, x := range set {
		if x == o {
			return true
		}
	}
	return false
}

func addOrigin(set []origin, o origin) []origin {
	if hasOrigin(set, o) {
		return set
	}
	out := make([]origin, 0, len(set)+1)
	out = append(out, set...)
	out = append(out, o)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func removeOrigin(set []origin, o origin) []origin {
	if !hasOrigin(set, o) {
		return set
	}
	out := make([]origin, 0, len(set)-1)
	for _, x := range set {
		if x != o {
			out = append(out, x)
		}
	}
	return out
}

func intersectOrigins(a, b []origin) []origin {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	var out []origin
	for _, x := range a {
		if hasOrigin(b, x) {
			out = append(out, x)
		}
	}
	return out
}

func joinVal(a, b aval) aval {
	out := aval{iv: a.iv.Join(b.iv), null: JoinNull(a.null, b.null)}
	out.orig, out.from, out.eqLen = noOrigin, -1, noOrigin
	if a.orig == b.orig {
		out.orig = a.orig
	}
	if a.from == b.from {
		out.from = a.from
	}
	if a.eqLen == b.eqLen {
		out.eqLen = a.eqLen
	}
	out.lt = intersectOrigins(a.lt, b.lt)
	return out
}

func widenVal(prev, next aval) aval {
	out := joinVal(prev, next)
	out.iv = prev.iv.Widen(next.iv)
	return out
}

func equalVal(a, b aval) bool {
	if a.iv != b.iv || a.null != b.null || a.orig != b.orig ||
		a.from != b.from || a.eqLen != b.eqLen || len(a.lt) != len(b.lt) {
		return false
	}
	for i := range a.lt {
		if a.lt[i] != b.lt[i] {
			return false
		}
	}
	return true
}

// state is the abstract machine state flowing into one pc.
type state struct {
	stack  []aval
	locals []aval
}

func (s *state) clone() *state {
	c := &state{stack: make([]aval, len(s.stack)), locals: make([]aval, len(s.locals))}
	copy(c.stack, s.stack)
	copy(c.locals, s.locals)
	return c
}

func (s *state) push(v aval) { s.stack = append(s.stack, v) }

// pop and drop assume the depth step checked against Op.Pops.
func (s *state) pop() aval {
	v := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return v
}

func (s *state) drop(n int) { s.stack = s.stack[:len(s.stack)-n] }

// each visits every slot (stack then locals) of the state.
func (s *state) each(f func(v *aval)) {
	for i := range s.stack {
		f(&s.stack[i])
	}
	for i := range s.locals {
		f(&s.locals[i])
	}
}

// killOrigin makes o denote only the value about to be produced at its
// defining pc: strips o as identity from every slot and drops every
// symbolic fact that mentions it.
func (s *state) killOrigin(o origin) {
	s.each(func(v *aval) {
		if v.orig == o {
			v.orig = noOrigin
		}
		if v.eqLen == o {
			v.eqLen = noOrigin
		}
		v.lt = removeOrigin(v.lt, o)
	})
}

// killFrom drops the from-local provenance after local l is
// overwritten; the slots keep their own (still valid) value facts.
func (s *state) killFrom(l int) {
	s.each(func(v *aval) {
		if v.from == int16(l) {
			v.from = -1
		}
	})
}

// refineFrom applies a refinement of value v to its backing local (and
// any other live copy of that local), so facts learned at a branch or
// a dereference survive the pop.
func (s *state) refineFrom(v aval, apply func(*aval)) {
	if v.from < 0 {
		return
	}
	l := v.from
	if int(l) < len(s.locals) {
		apply(&s.locals[l])
	}
	for i := range s.stack {
		if s.stack[i].from == l {
			apply(&s.stack[i])
		}
	}
}

// join merges in into have, widening intervals when widen is set (a
// loop head). It returns nil when have already covers in; otherwise a
// copy of have, so neither argument is mutated.
func join(have, in *state, widen bool) (*state, error) {
	if len(have.stack) != len(in.stack) || len(have.locals) != len(in.locals) {
		return nil, errShape
	}
	var out *state
	for i := range have.stack {
		if n, ok := mixVal(have.stack[i], in.stack[i], widen); ok {
			if out == nil {
				out = have.clone()
			}
			out.stack[i] = n
		}
	}
	for i := range have.locals {
		if n, ok := mixVal(have.locals[i], in.locals[i], widen); ok {
			if out == nil {
				out = have.clone()
			}
			out.locals[i] = n
		}
	}
	return out, nil
}

// mixVal joins (or widens) v into d, reporting whether d changes.
func mixVal(d, v aval, widen bool) (aval, bool) {
	var n aval
	if widen {
		n = widenVal(d, v)
	} else {
		n = joinVal(d, v)
	}
	return n, !equalVal(d, n)
}

// msum is one method's interprocedural summary: the join of entry
// values over every modeled call site plus the join of returned
// values. entered=false means no modeled path calls the method yet
// (its body is not analyzed this round); returns=false means no return
// instruction has been reached yet (callers treat the call as not
// falling through).
//
// entryAt and retAt are the analyzer clock's ticks at the last change
// to the entry and the return side. solvedAt is the clock when the
// method's last round-loop solve began, and reads lists the callees
// whose return side that solve read: the method's inputs are clean
// while none of those stamps is newer than solvedAt.
type msum struct {
	entered  bool
	params   []aval
	paramLen []Interval
	returns  bool
	ret      aval
	retLen   Interval

	entryAt, retAt, solvedAt uint64
	reads                    []*msum
}

// dirty reports whether an input of the method changed since its last
// solve began. A clean method's solve would re-merge only values its
// callees' summaries and its own return already include, which changes
// nothing, so the round loop skips it.
func (s *msum) dirty() bool {
	if s.entryAt > s.solvedAt {
		return true
	}
	for _, r := range s.reads {
		if r.retAt > s.solvedAt {
			return true
		}
	}
	return false
}

// Result carries the per-site verdicts. Bounds maps every reachable
// array-access site to whether the full bounds+null check is proven
// redundant; Null maps every reachable explicit null-check site
// (getfield/putfield/arraylength/invoke receiver/monitorenter/-exit)
// to whether the reference is proven non-null.
type Result struct {
	Bounds map[ipa.Site]bool
	Null   map[ipa.Site]bool
	// Work is what the fixpoint cost to reach these verdicts.
	Work Work

	methods map[int]*bytecode.Method
}

// Work counts the effort of one Analyze run. Every field is a
// deterministic function of the program, so a change to the fixpoint's
// scheduling shows up as changed integers rather than as timing noise.
type Work struct {
	Rounds    int // interprocedural rounds, the converging one included
	Solves    int // method solves, the final recording pass included
	Inner     int // analysis.Solve runs (a solve re-runs it while lengths grow)
	Transfers int // block transfers
	Steps     int // abstract instructions stepped by those transfers
}

// MaxRounds caps the interprocedural rounds. A program that needs them
// all drops every summary to top, keeping only intra-method facts.
const MaxRounds = 40

// BoundsProvenID reports whether the access at (method id, pc) is
// proven in range on a non-null array.
func (r *Result) BoundsProvenID(id, pc int) bool { return r.Bounds[ipa.Site{Method: id, PC: pc}] }

// NullProvenID reports whether the reference checked at (method id,
// pc) is proven non-null.
func (r *Result) NullProvenID(id, pc int) bool { return r.Null[ipa.Site{Method: id, PC: pc}] }

// Census is the provable-checks tally for one program.
type Census struct {
	Methods      int `json:"methods"`
	BoundsSites  int `json:"boundsSites"`
	BoundsProven int `json:"boundsProven"`
	NullSites    int `json:"nullSites"`
	NullProven   int `json:"nullProven"`
}

// Summarize tallies the verdicts.
func (r *Result) Summarize() Census {
	c := Census{Methods: len(r.methods)}
	for _, ok := range r.Bounds {
		c.BoundsSites++
		if ok {
			c.BoundsProven++
		}
	}
	for _, ok := range r.Null {
		c.NullSites++
		if ok {
			c.NullProven++
		}
	}
	return c
}

// SiteVerdict is one site's verdict in reportable form.
type SiteVerdict struct {
	Method string `json:"method"`
	PC     int    `json:"pc"`
	Kind   string `json:"kind"` // "bounds" or "null"
	Proven bool   `json:"proven"`
}

// SortedSites lists every analyzed check site (method name, pc, kind
// order) for the deterministic census reports.
func (r *Result) SortedSites() []SiteVerdict {
	var out []SiteVerdict
	add := func(m map[ipa.Site]bool, kind string) {
		for site, ok := range m {
			meth := r.methods[site.Method]
			if meth == nil {
				continue
			}
			out = append(out, SiteVerdict{Method: meth.FullName(), PC: site.PC, Kind: kind, Proven: ok})
		}
	}
	add(r.Bounds, "bounds")
	add(r.Null, "null")
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.PC != b.PC {
			return a.PC < b.PC
		}
		return a.Kind < b.Kind
	})
	return out
}

// analyzer drives the interprocedural fixpoint over the reachable
// methods of the ipa call graph.
type analyzer struct {
	res     *ipa.Result
	order   []*bytecode.Method
	sums    map[*bytecode.Method]*msum
	bailedM map[*bytecode.Method]bool
	clock   uint64 // tick of the latest summary change
	widen   bool
	result  *Result
}

// Analyze runs the whole-program value-range and nullness analysis.
// res must be the ipa result over the same (already loaded) class set:
// it supplies reachability, roots, and RTA-narrowed virtual-call
// target sets.
func Analyze(classes []*bytecode.Class, res *ipa.Result) *Result {
	a := &analyzer{
		res:     res,
		sums:    map[*bytecode.Method]*msum{},
		bailedM: map[*bytecode.Method]bool{},
		result: &Result{
			Bounds:  map[ipa.Site]bool{},
			Null:    map[ipa.Site]bool{},
			methods: map[int]*bytecode.Method{},
		},
	}
	instantiated := map[*bytecode.Class]bool{}
	for c, ok := range res.Instantiated {
		if ok {
			instantiated[c] = true
		}
	}
	for _, c := range classes {
		if c.Name == "Sys" {
			continue
		}
		for _, m := range c.Methods {
			if !res.Reachable[m] || len(m.Code) == 0 {
				continue
			}
			a.order = append(a.order, m)
			a.sums[m] = newSum(m)
			a.result.methods[m.ID] = m
		}
	}
	sort.Slice(a.order, func(i, j int) bool { return a.order[i].ID < a.order[j].ID })

	// Roots enter with top parameters; the receiver of any instance
	// method is non-null by the engines' invoke-side checks (the
	// interpreter's explicit receiver CheckNull, the JIT's vtable
	// class-id load that traps at address 0, and spawn's CheckNull for
	// run() roots).
	for _, m := range res.Roots {
		a.topEntry(m)
	}
	for _, c := range classes {
		if !instantiated[c] {
			continue
		}
		for _, m := range c.VTable {
			if m != nil && m.Name == "run" && len(m.Sig.Params) == 0 &&
				m.Sig.Ret == bytecode.TVoid && res.Reachable[m] {
				a.topEntry(m)
			}
		}
	}

	round := 0
	for ; round < MaxRounds; round++ {
		start := a.clock
		a.widen = round >= 6
		for _, m := range a.order {
			if s := a.sums[m]; s.entered && !a.bailedM[m] && s.dirty() {
				a.solve(m, false)
			}
		}
		if a.clock == start {
			break
		}
	}
	a.result.Work.Rounds = min(round+1, MaxRounds)
	if round == MaxRounds {
		// No convergence (should not happen with widening): drop to the
		// sound top summaries and take whatever intra-method facts remain.
		for _, m := range a.order {
			a.topEntry(m)
			s := a.sums[m]
			s.returns, s.ret, s.retLen = true, top(), Range(0, math.MaxInt64)
		}
	}
	for _, m := range a.order {
		if a.sums[m].entered && !a.bailedM[m] {
			a.solve(m, true)
		}
	}
	return a.result
}

func newSum(m *bytecode.Method) *msum {
	n := m.NumArgs()
	s := &msum{params: make([]aval, n), paramLen: make([]Interval, n)}
	for i := range s.params {
		s.params[i] = bottomParam()
	}
	return s
}

// bottomParam is the identity of the call-site join: an empty interval
// plus facts that any join immediately collapses to the argument's.
func bottomParam() aval {
	return aval{iv: Interval{Lo: math.MaxInt64, Hi: math.MinInt64}, null: MaybeNull,
		orig: noOrigin, from: -1, eqLen: noOrigin}
}

// topEntry forces m's entry summary to top (receiver still non-null).
func (a *analyzer) topEntry(m *bytecode.Method) {
	s := a.sums[m]
	if s == nil {
		return
	}
	full := Range(0, math.MaxInt64)
	for i := range s.params {
		v := top()
		if i == 0 && !m.IsStatic() {
			v.null = NonNull
		}
		if !s.entered || !equalVal(s.params[i], v) || s.paramLen[i] != full {
			a.touchEntry(s)
		}
		s.params[i], s.paramLen[i] = v, full
	}
	if !s.entered {
		a.touchEntry(s)
	}
	s.entered = true
}

// touchEntry and touchRet stamp a change to one side of s.
func (a *analyzer) touchEntry(s *msum) { a.clock++; s.entryAt = a.clock }
func (a *analyzer) touchRet(s *msum)   { a.clock++; s.retAt = a.clock }

// enter marks t's body as called this round. mergeArg also sets the
// flag, but only fires per argument — a zero-argument callee is
// entered through here alone.
func (a *analyzer) enter(t *bytecode.Method) {
	s := a.sums[t]
	if s != nil && !s.entered {
		s.entered = true
		a.touchEntry(s)
	}
}

// mergeArg joins one modeled call-site argument into the callee's
// entry summary.
func (a *analyzer) mergeArg(t *bytecode.Method, i int, v aval, lenIv Interval) {
	s := a.sums[t]
	if s == nil || i >= len(s.params) {
		return
	}
	arg := aval{iv: v.iv, null: v.null, orig: noOrigin, from: -1, eqLen: noOrigin}
	if i == 0 && !t.IsStatic() {
		arg.null = NonNull
	}
	cur := s.params[i]
	var next aval
	var nextLen Interval
	if cur.iv.Lo > cur.iv.Hi { // bottom: first observed call
		next, nextLen = arg, lenIv
	} else if a.widen {
		next, nextLen = widenVal(cur, arg), s.paramLen[i].Widen(lenIv)
	} else {
		next, nextLen = joinVal(cur, arg), s.paramLen[i].Join(lenIv)
	}
	if !s.entered || !equalVal(cur, next) || s.paramLen[i] != nextLen {
		a.touchEntry(s)
	}
	s.entered = true
	s.params[i], s.paramLen[i] = next, nextLen
}

// mergeRet joins one return value into m's summary.
func (a *analyzer) mergeRet(m *bytecode.Method, v aval, lenIv Interval) {
	s := a.sums[m]
	ret := aval{iv: v.iv, null: v.null, orig: noOrigin, from: -1, eqLen: noOrigin}
	var next aval
	var nextLen Interval
	if !s.returns {
		next, nextLen = ret, lenIv
	} else if a.widen {
		next, nextLen = widenVal(s.ret, ret), s.retLen.Widen(lenIv)
	} else {
		next, nextLen = joinVal(s.ret, ret), s.retLen.Join(lenIv)
	}
	if !s.returns || !equalVal(s.ret, next) || s.retLen != nextLen {
		a.touchRet(s)
	}
	s.returns, s.ret, s.retLen = true, next, nextLen
}

func (a *analyzer) markReturnsVoid(m *bytecode.Method) {
	s := a.sums[m]
	if !s.returns {
		s.returns = true
		a.touchRet(s)
	}
}

// bail abandons analysis of m: it contributes no proofs, and every
// call target inside it is conservatively entered with top arguments
// (the method may call them in ways the model no longer tracks).
func (a *analyzer) bail(m *bytecode.Method) {
	if a.bailedM[m] {
		return
	}
	a.bailedM[m] = true
	s := a.sums[m]
	a.touchRet(s)
	s.returns, s.ret, s.retLen = true, top(), Range(0, math.MaxInt64)
	for pc, ins := range m.Code {
		switch ins.Op {
		case bytecode.InvokeStatic, bytecode.InvokeSpecial:
			if callee := m.Class.Pool.Methods[ins.A].Resolved; callee != nil && callee.Class.Name != "Sys" {
				a.topEntry(callee)
			}
		case bytecode.InvokeVirtual:
			for _, t := range a.res.Targets[ipa.Site{Method: m.ID, PC: pc}] {
				a.topEntry(t)
			}
		}
	}
}

// lenBound returns the known length interval of the value (for arrays
// with a tracked origin), defaulting to the full non-negative range.
func lenBound(lenOf map[origin]Interval, v aval) Interval {
	if v.orig != noOrigin {
		if iv, ok := lenOf[v.orig]; ok {
			return iv
		}
	}
	return Range(0, math.MaxInt64)
}

// msolver is the flow-sensitive dataflow over one method body: an
// analysis.Flow on the CFG ipa built, whose fact is the list of edges a
// block leaves by. Branch refinement gives each successor its own
// state, so Join and Transfer read only the edge addressed to their
// block's Start; a block no edge addresses is bottom (unreachable
// under the refinements so far).
type msolver struct {
	a     *analyzer
	m     *bytecode.Method
	entry *state

	lenOf    map[origin]Interval
	lenDirty map[origin]bool
	steps    int
	one      [1]edge // step's fall-through or goto edge, reused
	// work is the state a block is stepped through in place, reused
	// from block to block: its stack keeps the capacity the deepest
	// block so far needed, so neither loading it nor pushing onto it
	// allocates once it has grown.
	work state
}

// edge is one CFG edge with the state flowing along it.
type edge struct {
	to int
	st *state
}

// maxSteps bounds the instructions one solve may transfer; a body that
// needs more bails.
const maxSteps = 200000

var (
	errUnderflow = errors.New("abstract stack underflow")
	errShape     = errors.New("stack shape mismatch at a join")
	errBudget    = errors.New("step budget exhausted")
	errModel     = errors.New("instruction outside the model")
)

func (a *analyzer) solve(m *bytecode.Method, record bool) {
	work := &a.result.Work
	work.Solves++
	sum := a.sums[m]
	// Stamp before solving: a self-recursive call may change m's own
	// entry during this solve, and that change must leave m dirty.
	sum.solvedAt, sum.reads = a.clock, sum.reads[:0]
	f := a.res.Facts(m)
	if f == nil || f.Graph == nil {
		a.bail(m)
		return
	}
	entry := &state{locals: make([]aval, m.MaxLocals)}
	for i := range entry.locals {
		entry.locals[i] = top()
	}
	s := &msolver{a: a, m: m, entry: entry, lenOf: map[origin]Interval{}}
	for i := 0; i < m.NumArgs() && i < len(entry.locals); i++ {
		p := sum.params[i]
		if p.iv.Lo > p.iv.Hi { // bottom param on an entered method: treat as top
			p = top()
		}
		v := aval{iv: p.iv, null: p.null, orig: paramOrigin(i), from: -1, eqLen: noOrigin}
		if i == 0 && !m.IsStatic() {
			v.null = NonNull
		}
		entry.locals[i] = v
		s.lenOf[paramOrigin(i)] = sum.paramLen[i]
	}

	// The symbolic length table is monotone within the solve but feeds
	// transfer functions, so re-solve until it stabilizes (widening
	// surviving dirty entries before the final pass).
	var in [][]edge
	for round := 0; round < 4; round++ {
		s.lenDirty = map[origin]bool{}
		s.steps = 0
		work.Inner++
		var err error
		in, err = analysis.Solve[[]edge](f.Graph, s)
		work.Steps += s.steps
		if err != nil {
			a.bail(m)
			return
		}
		if len(s.lenDirty) == 0 {
			break
		}
		if round == 2 {
			for k := range s.lenDirty {
				s.lenOf[k] = Range(0, math.MaxInt64)
			}
		}
	}
	if record {
		s.collect(f.Graph, in)
	}
}

// edgeTo returns the state on the edge of out addressed to pc, nil
// (bottom) when there is none.
func edgeTo(out []edge, pc int) *state {
	for _, e := range out {
		if e.to == pc {
			return e.st
		}
	}
	return nil
}

func (s *msolver) Entry(*analysis.Graph) []edge { return []edge{{0, s.entry}} }

func (s *msolver) Transfer(_ *analysis.Graph, b *analysis.Block, in []edge) ([]edge, error) {
	st := edgeTo(in, b.Start)
	if st == nil {
		return nil, nil
	}
	w := s.load(st)
	st = w
	s.a.result.Work.Transfers++
	var out []edge
	for pc := b.Start; pc < b.End; pc++ {
		if s.steps++; s.steps > maxSteps {
			return nil, errBudget
		}
		var err error
		if out, err = s.step(pc, st); err != nil || len(out) == 0 {
			return nil, err
		}
		st = out[0].st
	}
	if len(out) == 2 && out[0].to == out[1].to {
		// A branch to the next instruction: both edges enter one block.
		if j, _ := join(out[0].st, out[1].st, false); j != nil {
			out[0].st = j
		}
		out = out[:1]
	}
	// The next block reuses w: the edges that leave with it share one
	// copy of their own.
	var own *state
	for i := range out {
		if out[i].st == w {
			if own == nil {
				own = w.clone()
			}
			out[i].st = own
		}
	}
	if len(out) == 1 {
		// out may be step's reused slot, and Solve keeps the fact.
		out = []edge{out[0]}
	}
	return out, nil
}

// load copies st into the working state and returns it.
func (s *msolver) load(st *state) *state {
	s.work.stack = append(s.work.stack[:0], st.stack...)
	s.work.locals = append(s.work.locals[:0], st.locals...)
	return &s.work
}

func (s *msolver) Join(_ *analysis.Graph, b *analysis.Block, have, incoming []edge) ([]edge, bool, error) {
	src := edgeTo(incoming, b.Start)
	if src == nil {
		return have, false, nil
	}
	dst := edgeTo(have, b.Start)
	if dst == nil {
		return []edge{{b.Start, src}}, true, nil
	}
	merged, err := join(dst, src, loopHead(b))
	if merged == nil || err != nil {
		return have, false, err
	}
	return []edge{{b.Start, merged}}, true, nil
}

// loopHead reports whether b is the target of a backward branch, where
// joins widen.
func loopHead(b *analysis.Block) bool {
	for _, p := range b.Preds {
		if p >= b.Index {
			return true
		}
	}
	return false
}

// noteLen joins a symbolic length observation for origin o.
func (s *msolver) noteLen(o origin, iv Interval) {
	cur, ok := s.lenOf[o]
	if !ok {
		s.lenOf[o] = iv
		s.lenDirty[o] = true
		return
	}
	next := cur.Join(iv)
	if next != cur {
		s.lenOf[o] = next
		s.lenDirty[o] = true
	}
}

// defRef prepares the state for a reference produced at pc: kills the
// previous incarnation of the origin and returns it.
func (s *msolver) defRef(st *state, pc int) origin {
	o := origin(pc)
	st.killOrigin(o)
	return o
}

// derefNonNull records the post-dereference fact: the VM throws (and
// the method never continues) on a null dereference, so on the
// fall-through path the reference — and the local it came from — is
// non-null.
func derefNonNull(st *state, ref aval) {
	st.refineFrom(ref, func(v *aval) { v.null = NonNull })
}

// boundsProven decides the tentpole question for one array access.
func (s *msolver) boundsProven(arr, idx aval) bool {
	if arr.null != NonNull || idx.iv.Lo < 0 {
		return false
	}
	if arr.orig != noOrigin && hasOrigin(idx.lt, arr.orig) {
		return true
	}
	lb := lenBound(s.lenOf, arr)
	return idx.iv.Hi < lb.Lo
}

// collect records the per-site verdicts by replaying each reachable
// block from its solved entry state.
func (s *msolver) collect(g *analysis.Graph, in [][]edge) {
	for _, bi := range g.RPO {
		b := g.Blocks[bi]
		st := edgeTo(in[bi], b.Start)
		if st == nil {
			continue
		}
		st = s.load(st)
		for pc := b.Start; ; pc++ {
			s.record(pc, st)
			if pc == b.End-1 {
				break
			}
			// Solve stepped every instruction from these states without
			// an error, so the replay cannot fail.
			out, _ := s.step(pc, st)
			if len(out) == 0 {
				break
			}
			st = out[0].st
		}
	}
}

// record stores the verdict of the check site at pc, if it is one,
// from the state flowing into it.
func (s *msolver) record(pc int, st *state) {
	ins := s.m.Code[pc]
	at := func(depth int) aval { return st.stack[len(st.stack)-depth] }
	site := ipa.Site{Method: s.m.ID, PC: pc}
	r := s.a.result
	switch ins.Op {
	case bytecode.IALoad, bytecode.FALoad, bytecode.AALoad, bytecode.CALoad:
		r.Bounds[site] = s.boundsProven(at(2), at(1))
	case bytecode.IAStore, bytecode.FAStore, bytecode.AAStore, bytecode.CAStore:
		r.Bounds[site] = s.boundsProven(at(3), at(2))
	case bytecode.ArrayLength, bytecode.MonitorEnter, bytecode.MonitorExit, bytecode.GetField:
		r.Null[site] = at(1).null == NonNull
	case bytecode.PutField:
		r.Null[site] = at(2).null == NonNull
	case bytecode.InvokeVirtual, bytecode.InvokeSpecial:
		if callee := s.m.Class.Pool.Methods[ins.A].Resolved; callee != nil && !callee.IsStatic() {
			r.Null[site] = at(callee.NumArgs()).null == NonNull
		}
	}
}
