package ipa

import (
	"cmp"
	"errors"
	"slices"

	"jrs/internal/analysis"
	"jrs/internal/bytecode"
)

// The per-method abstract interpreter, the one every whole-program
// analysis reads. It runs once per reachable method, on analysis.Solve
// over the method's CFG. Each stack slot and local (int locals
// included) holds a small *set* of possible sources plus an "unknown"
// bit for values it cannot name. Joins union the sets, so no
// constituent is ever lost at a merge: if an allocation flows into an
// escaping position along any path, the escape solver sees it.
//
// ipa's own escape, devirtualization and elision decisions read only
// the Null, Param and Alloc sources and count every other kind as
// unknown. The unknown bit is deliberately ignorable for escape
// purposes: a reference can only become unknown by being loaded from
// the heap (or returned from a call), and to get into the heap it must
// have been stored there — which already marked it escaped at the store
// site. For elision decisions the bit is a veto instead: a monitor
// operand or receiver with an unknown component might be a shared
// object, so it never qualifies as thread-local.
//
// The race analysis (internal/analysis/conc) also needs the other
// kinds: it resolves heap loads through its points-to maps and call
// results through return summaries, and it follows the int thread id
// Sys.spawn returns through int locals into Sys.join.

// SrcKind classifies one possible source of an abstract value.
type SrcKind uint8

const (
	SrcNull   SrcKind = iota
	SrcParam          // argument slot A (receiver included)
	SrcAlloc          // the allocation at pc A
	SrcTid            // the int thread id returned by Sys.spawn at pc A
	SrcField          // a reference loaded by getfield of pool field A
	SrcStatic         // a reference loaded by getstatic of pool field A
	SrcElem           // a reference loaded from some array element
	SrcCall           // the reference returned by the non-Sys call at pc A
)

// Src is one possible source of a value.
type Src struct {
	Kind SrcKind
	A    int32
}

// Value is a set of possible sources plus the unknown bit. Srcs is
// sorted and deduplicated.
type Value struct {
	Unknown bool
	Srcs    []Src
}

var top = Value{Unknown: true}

// ValueOf is the value with exactly one source.
func ValueOf(k SrcKind, a int) Value { return Value{Srcs: []Src{{Kind: k, A: int32(a)}}} }

// Single reports A when v is exactly one source of kind k and nothing
// else.
func (v Value) Single(k SrcKind) (int, bool) {
	if !v.Unknown && len(v.Srcs) == 1 && v.Srcs[0].Kind == k {
		return int(v.Srcs[0].A), true
	}
	return 0, false
}

func cmpSrc(x, y Src) int {
	if x.Kind != y.Kind {
		return cmp.Compare(x.Kind, y.Kind)
	}
	return cmp.Compare(x.A, y.A)
}

func equalVal(a, b Value) bool {
	return a.Unknown == b.Unknown && slices.Equal(a.Srcs, b.Srcs)
}

func joinVal(a, b Value) Value {
	if equalVal(a, b) {
		return a
	}
	out := Value{Unknown: a.Unknown || b.Unknown}
	out.Srcs = append(append([]Src(nil), a.Srcs...), b.Srcs...)
	slices.SortFunc(out.Srcs, cmpSrc)
	out.Srcs = slices.Compact(out.Srcs)
	return out
}

// CallFact is one reached call site: its resolution, its possible
// callees and its abstract arguments (receiver first for instance
// calls), joined over every path to the site.
type CallFact struct {
	PC      int
	Callee  *bytecode.Method
	Virtual bool
	Sys     bool
	// Targets are the possible callees: the CHA target set of a
	// virtual site, the callee of a direct one, none for a Sys
	// intrinsic.
	Targets []*bytecode.Method
	Args    []Value
}

// SysArg returns the first argument of a call to the named Sys
// intrinsic: the Runnable of spawn, the thread id of join.
func (c *CallFact) SysArg(name string) (Value, bool) {
	if !c.Sys || c.Callee.Name != name || len(c.Args) == 0 {
		return Value{}, false
	}
	return c.Args[0], true
}

// AccessFact is one reached field, static or array-element access.
type AccessFact struct {
	PC     int
	Op     bytecode.Op
	Write  bool
	Static bool
	Array  bool
	// Elem is the element kind (KindInt..KindChar) of an array access;
	// Field is the class-pool index of a field or static access.
	Elem  int
	Field int32
	// Ref marks a location that holds references; Stored is the value
	// a reference write puts there.
	Ref    bool
	Recv   Value // receiver of field and array accesses
	Stored Value
}

// MethodFacts is everything the interpreter records for one method
// body. Every fact is joined over all paths to its pc.
type MethodFacts struct {
	Graph *analysis.Graph
	// NoFlow marks a body the interpreter could not process (an
	// ill-typed stack, an unresolved callee): it carries no facts, and
	// every consumer treats it as "no information".
	NoFlow   bool
	Calls    []CallFact    // pc order
	Accesses []AccessFact  // pc order
	Monitors map[int]Value // monitorenter/monitorexit pc -> operand
	Returns  Value         // joined areturn operands
	Intra    Effect        // local effects (calls excluded)
}

// CallAt returns the call fact at pc, or nil.
func (f *MethodFacts) CallAt(pc int) *CallFact {
	i, ok := slices.BinarySearchFunc(f.Calls, pc, func(c CallFact, pc int) int { return cmp.Compare(c.PC, pc) })
	if !ok {
		return nil
	}
	return &f.Calls[i]
}

// collectFacts interprets every reachable method body and sizes the
// escape summaries.
func (r *Result) collectFacts() {
	for _, c := range r.classes {
		for _, m := range c.Methods {
			if !r.Reachable[m] || m.Class.Name == "Sys" || len(m.Code) == 0 {
				continue
			}
			f := r.interpret(m)
			pe := make([]bool, m.NumArgs())
			if f.NoFlow {
				r.degrade(m, f, pe)
			}
			r.methods = append(r.methods, m)
			r.facts[m] = f
			r.ParamEscapes[m] = pe
		}
	}
	slices.SortFunc(r.methods, func(a, b *bytecode.Method) int { return cmp.Compare(a.ID, b.ID) })
}

// degrade makes a body without facts sound for every solver: all its
// parameters and allocation sites escape and its local effects are
// every bit. With no recorded call or monitor facts it gets no
// exact-receiver devirtualization and no elision.
func (r *Result) degrade(m *bytecode.Method, f *MethodFacts, pe []bool) {
	for i := range pe {
		pe[i] = true
	}
	for pc, ins := range m.Code {
		switch ins.Op {
		case bytecode.New:
			r.AllocClass[Site{m.ID, pc}] = m.Class.Pool.Classes[ins.A].Resolved
		case bytecode.NewArray:
			r.AllocClass[Site{m.ID, pc}] = nil
		default:
			continue
		}
		r.Escaped[Site{m.ID, pc}] = true
	}
	f.Intra = EffReadHeap | EffWriteHeap | EffAlloc | EffLock | EffIO | EffThread
}

// interpret runs the abstract interpreter over one body.
func (r *Result) interpret(m *bytecode.Method) *MethodFacts {
	g, err := analysis.BuildCFG(m)
	if err != nil {
		return &MethodFacts{NoFlow: true}
	}
	in := &interp{r: r, m: m, f: &MethodFacts{Graph: g}, idx: make([]int32, len(m.Code))}
	if _, err := analysis.Solve[absState](g, in); err != nil {
		return &MethodFacts{Graph: g, NoFlow: true}
	}
	f := in.f
	slices.SortFunc(f.Calls, func(a, b CallFact) int { return cmp.Compare(a.PC, b.PC) })
	slices.SortFunc(f.Accesses, func(a, b AccessFact) int { return cmp.Compare(a.PC, b.PC) })
	f.Intra = intraEffects(m)
	return f
}

type absState struct {
	stack  []Value
	locals []Value
}

// interp is the analysis.Flow of one method body. Solve re-transfers
// blocks until nothing changes, so Transfer records facts by joining
// them in place per pc, never by appending.
type interp struct {
	r *Result
	m *bytecode.Method
	f *MethodFacts
	// idx[pc] is 1 + the index of pc's fact in f.Calls or f.Accesses
	// (a pc is at most one of the two), 0 before its first visit.
	idx []int32
}

var (
	errUnderflow  = errors.New("abstract stack underflow")
	errDepth      = errors.New("stack depth mismatch at a join")
	errUnresolved = errors.New("unresolved callee")
)

func (in *interp) Entry(*analysis.Graph) absState {
	st := absState{locals: make([]Value, in.m.MaxLocals)}
	for i := range st.locals {
		st.locals[i] = top
		if i < in.m.NumArgs() {
			st.locals[i] = ValueOf(SrcParam, i)
		}
	}
	return st
}

// Join merges pointwise. Verified code agrees on stack depth at every
// join; a body that does not has no usable flow.
func (in *interp) Join(_ *analysis.Graph, _ *analysis.Block, have, incoming absState) (absState, bool, error) {
	if len(have.stack) != len(incoming.stack) {
		return absState{}, false, errDepth
	}
	var out absState
	merge := func(dst *[]Value, have, incoming []Value) {
		for i := range have {
			if j := joinVal(have[i], incoming[i]); !equalVal(j, have[i]) {
				if *dst == nil {
					*dst = slices.Clone(have)
				}
				(*dst)[i] = j
			}
		}
	}
	merge(&out.stack, have.stack, incoming.stack)
	merge(&out.locals, have.locals, incoming.locals)
	if out.stack == nil && out.locals == nil {
		return have, false, nil
	}
	if out.stack == nil {
		out.stack = have.stack
	}
	if out.locals == nil {
		out.locals = have.locals
	}
	return out, true, nil
}

func (in *interp) Transfer(_ *analysis.Graph, b *analysis.Block, s absState) (absState, error) {
	st := absState{stack: slices.Clone(s.stack), locals: slices.Clone(s.locals)}
	for pc := b.Start; pc < b.End; pc++ {
		if err := in.step(pc, &st); err != nil {
			return absState{}, err
		}
	}
	return st, nil
}

// step applies one instruction to st and records its facts.
func (in *interp) step(pc int, st *absState) error {
	m, f := in.m, in.f
	ins := m.Code[pc]
	if len(st.stack) < ins.Op.Pops() {
		return errUnderflow
	}
	push := func(v Value) { st.stack = append(st.stack, v) }
	pop := func() Value {
		v := st.stack[len(st.stack)-1]
		st.stack = st.stack[:len(st.stack)-1]
		return v
	}
	drop := func(n int) { st.stack = st.stack[:len(st.stack)-n] }
	peek := func(k int) Value { return st.stack[len(st.stack)-k] }

	switch op := ins.Op; {
	case op == bytecode.Nop:
	case op == bytecode.IInc:
		st.locals[ins.A] = top
	case op == bytecode.IConst || op == bytecode.FConst || op == bytecode.SConst:
		push(top)
	case op == bytecode.AConstNull:
		push(ValueOf(SrcNull, 0))
	case op == bytecode.ILoad || op == bytecode.FLoad || op == bytecode.ALoad:
		push(st.locals[ins.A])
	case op == bytecode.IStore || op == bytecode.FStore || op == bytecode.AStore:
		st.locals[ins.A] = pop()
	case op == bytecode.Pop:
		pop()
	case op == bytecode.Dup:
		push(peek(1))
	case op == bytecode.Swap:
		n := len(st.stack)
		st.stack[n-1], st.stack[n-2] = st.stack[n-2], st.stack[n-1]
	case op >= bytecode.IAdd && op <= bytecode.FCmp, op == bytecode.I2F, op == bytecode.F2I,
		op == bytecode.ArrayLength:
		drop(op.Pops())
		push(top)
	case op == bytecode.New:
		in.r.AllocClass[Site{m.ID, pc}] = m.Class.Pool.Classes[ins.A].Resolved
		push(ValueOf(SrcAlloc, pc))
	case op == bytecode.NewArray:
		pop()
		in.r.AllocClass[Site{m.ID, pc}] = nil
		push(ValueOf(SrcAlloc, pc))
	case op == bytecode.IALoad || op == bytecode.FALoad || op == bytecode.AALoad ||
		op == bytecode.CALoad:
		in.access(AccessFact{PC: pc, Op: op, Array: true, Elem: arrayKind(op),
			Ref: op == bytecode.AALoad, Recv: peek(2)})
		drop(2)
		if op == bytecode.AALoad {
			push(ValueOf(SrcElem, 0))
		} else {
			push(top)
		}
	case op == bytecode.IAStore || op == bytecode.FAStore || op == bytecode.AAStore ||
		op == bytecode.CAStore:
		af := AccessFact{PC: pc, Op: op, Write: true, Array: true, Elem: arrayKind(op),
			Ref: op == bytecode.AAStore, Recv: peek(3)}
		if af.Ref {
			af.Stored = peek(1)
		}
		in.access(af)
		drop(3)
	case op.IsBranch():
		drop(op.Pops())
	case op == bytecode.GetField:
		ref := fieldType(m, ins.A) == bytecode.TRef
		in.access(AccessFact{PC: pc, Op: op, Field: ins.A, Ref: ref, Recv: pop()})
		if ref {
			push(ValueOf(SrcField, int(ins.A)))
		} else {
			push(top)
		}
	case op == bytecode.PutField:
		af := AccessFact{PC: pc, Op: op, Write: true, Field: ins.A,
			Ref: fieldType(m, ins.A) == bytecode.TRef, Recv: peek(2)}
		if af.Ref {
			af.Stored = peek(1)
		}
		in.access(af)
		drop(2)
	case op == bytecode.GetStatic:
		ref := fieldType(m, ins.A) == bytecode.TRef
		in.access(AccessFact{PC: pc, Op: op, Static: true, Field: ins.A, Ref: ref})
		if ref {
			push(ValueOf(SrcStatic, int(ins.A)))
		} else {
			push(top)
		}
	case op == bytecode.PutStatic:
		af := AccessFact{PC: pc, Op: op, Write: true, Static: true, Field: ins.A,
			Ref: fieldType(m, ins.A) == bytecode.TRef}
		if af.Ref {
			af.Stored = peek(1)
		}
		in.access(af)
		pop()
	case op.IsInvoke():
		callee := m.Class.Pool.Methods[ins.A].Resolved
		if callee == nil {
			return errUnresolved
		}
		n := callee.NumArgs()
		if len(st.stack) < n {
			return errUnderflow
		}
		cf := in.call(pc, op == bytecode.InvokeVirtual, callee, st.stack[len(st.stack)-n:])
		drop(n)
		switch {
		case callee.Sig.Ret == bytecode.TVoid:
		case cf.Sys && callee.Name == "spawn":
			push(ValueOf(SrcTid, pc))
		case callee.Sig.Ret == bytecode.TRef && !cf.Sys:
			push(ValueOf(SrcCall, pc))
		default:
			push(top)
		}
	case op == bytecode.IReturn || op == bytecode.FReturn:
		pop()
	case op == bytecode.AReturn:
		f.Returns = joinVal(f.Returns, pop())
	case op == bytecode.MonitorEnter || op == bytecode.MonitorExit:
		v := pop()
		if prev, ok := f.Monitors[pc]; ok {
			v = joinVal(prev, v)
		} else if f.Monitors == nil {
			f.Monitors = map[int]Value{}
		}
		f.Monitors[pc] = v
	}
	return nil
}

// call records (or joins into) the call fact at pc.
func (in *interp) call(pc int, virtual bool, callee *bytecode.Method, args []Value) *CallFact {
	if i := in.idx[pc]; i > 0 {
		cf := &in.f.Calls[i-1]
		for j := range args {
			cf.Args[j] = joinVal(cf.Args[j], args[j])
		}
		return cf
	}
	cf := CallFact{PC: pc, Callee: callee, Virtual: virtual, Sys: callee.Class.Name == "Sys",
		Args: slices.Clone(args)}
	cf.Targets = in.r.siteTargets(in.m, &cf)
	in.f.Calls = append(in.f.Calls, cf)
	in.idx[pc] = int32(len(in.f.Calls))
	return &in.f.Calls[len(in.f.Calls)-1]
}

// access records (or joins into) the access fact at af.PC.
func (in *interp) access(af AccessFact) {
	if i := in.idx[af.PC]; i > 0 {
		prev := &in.f.Accesses[i-1]
		prev.Recv = joinVal(prev.Recv, af.Recv)
		prev.Stored = joinVal(prev.Stored, af.Stored)
		return
	}
	in.f.Accesses = append(in.f.Accesses, af)
	in.idx[af.PC] = int32(len(in.f.Accesses))
}

// arrayKind is the element kind an array load or store touches.
func arrayKind(op bytecode.Op) int {
	switch op {
	case bytecode.IALoad, bytecode.IAStore:
		return bytecode.KindInt
	case bytecode.FALoad, bytecode.FAStore:
		return bytecode.KindFloat
	case bytecode.AALoad, bytecode.AAStore:
		return bytecode.KindRef
	default:
		return bytecode.KindChar
	}
}

// fieldType returns the declared type of the field named by pool index
// idx in m's class pool.
func fieldType(m *bytecode.Method, idx int32) bytecode.Type {
	fr := &m.Class.Pool.Fields[idx]
	if fr.Resolved == nil {
		return bytecode.TInt
	}
	return fr.Resolved.Type
}

// intraEffects scans a body linearly (dead code included — sound) for
// local effects; call effects are folded in by the SCC solver.
func intraEffects(m *bytecode.Method) Effect {
	var e Effect
	if m.IsSynchronized() {
		e |= EffLock
	}
	for _, ins := range m.Code {
		switch op := ins.Op; {
		case op == bytecode.GetField || op == bytecode.GetStatic ||
			op == bytecode.IALoad || op == bytecode.FALoad ||
			op == bytecode.AALoad || op == bytecode.CALoad ||
			op == bytecode.ArrayLength:
			e |= EffReadHeap
		case op == bytecode.PutField || op == bytecode.PutStatic ||
			op == bytecode.IAStore || op == bytecode.FAStore ||
			op == bytecode.AAStore || op == bytecode.CAStore:
			e |= EffWriteHeap
		case op == bytecode.New || op == bytecode.NewArray || op == bytecode.SConst:
			e |= EffAlloc
		case op == bytecode.MonitorEnter || op == bytecode.MonitorExit:
			e |= EffLock
		}
	}
	return e
}
