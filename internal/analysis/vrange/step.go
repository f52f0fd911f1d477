package vrange

import (
	"math"

	"jrs/internal/analysis/ipa"
	"jrs/internal/bytecode"
)

// step executes the abstract transfer for the instruction at pc over
// st (a private clone the caller hands over) and returns the outgoing
// CFG edges with their refined states. An empty slice means the
// instruction never falls through (return, throw-only, or a branch
// whose both edges are refuted); an error means the body is outside
// the model and the method bails. A single fall-through or goto edge is
// returned in s.one, valid until the next step.
func (s *msolver) step(pc int, st *state) ([]edge, error) {
	ins := s.m.Code[pc]
	if len(st.stack) < ins.Op.Pops() {
		return nil, errUnderflow
	}
	switch ins.Op {
	case bytecode.Nop:

	case bytecode.IConst:
		st.push(intVal(Point(int64(ins.A))))
	case bytecode.FConst:
		st.push(top())
	case bytecode.SConst:
		o := s.defRef(st, pc)
		s.noteLen(o, Range(0, math.MaxInt64))
		st.push(aval{iv: Full(), null: NonNull, orig: o, from: -1, eqLen: noOrigin})
	case bytecode.AConstNull:
		v := top()
		v.null = IsNull
		st.push(v)

	case bytecode.ILoad, bytecode.FLoad, bytecode.ALoad:
		v := st.locals[ins.A]
		v.from = int16(ins.A)
		st.push(v)
	case bytecode.IStore, bytecode.FStore, bytecode.AStore:
		v := st.pop()
		st.killFrom(int(ins.A))
		v.from = -1
		st.locals[ins.A] = v
	case bytecode.IInc:
		st.killFrom(int(ins.A))
		v := st.locals[ins.A]
		v.iv = v.iv.Add(Point(int64(ins.B)))
		v.eqLen, v.lt = noOrigin, nil
		st.locals[ins.A] = v

	case bytecode.Pop:
		st.pop()
	case bytecode.Dup:
		st.push(st.stack[len(st.stack)-1])
	case bytecode.Swap:
		n := len(st.stack)
		st.stack[n-1], st.stack[n-2] = st.stack[n-2], st.stack[n-1]

	case bytecode.IAdd, bytecode.ISub, bytecode.IMul, bytecode.IDiv, bytecode.IRem,
		bytecode.IAnd, bytecode.IOr, bytecode.IXor,
		bytecode.IShl, bytecode.IShr, bytecode.IUshr:
		b := st.pop()
		a := st.pop()
		st.push(s.arith(ins.Op, a, b))
	case bytecode.INeg:
		st.push(intVal(st.pop().iv.Neg()))
	case bytecode.FAdd, bytecode.FSub, bytecode.FMul, bytecode.FDiv, bytecode.FNeg,
		bytecode.I2F, bytecode.F2I:
		st.drop(ins.Op.Pops())
		st.push(top())
	case bytecode.FCmp:
		st.drop(2)
		st.push(intVal(Range(-1, 1)))

	case bytecode.New:
		o := s.defRef(st, pc)
		st.push(aval{iv: Full(), null: NonNull, orig: o, from: -1, eqLen: noOrigin})
	case bytecode.NewArray:
		lenIv, ok := st.pop().iv.Meet(Range(0, math.MaxInt64))
		if !ok {
			return nil, nil // provably negative length: always throws
		}
		o := s.defRef(st, pc)
		s.noteLen(o, lenIv)
		st.push(aval{iv: Full(), null: NonNull, orig: o, from: -1, eqLen: noOrigin})
	case bytecode.ArrayLength:
		arr := st.pop()
		if arr.null == IsNull {
			return nil, nil // always throws
		}
		derefNonNull(st, arr)
		v := intVal(lenBound(s.lenOf, arr))
		v.eqLen = arr.orig
		st.push(v)

	case bytecode.IALoad, bytecode.FALoad, bytecode.AALoad, bytecode.CALoad:
		idx := st.pop()
		arr := st.pop()
		if arr.null == IsNull {
			return nil, nil
		}
		s.postAccess(st, arr, idx)
		switch ins.Op {
		case bytecode.CALoad:
			st.push(intVal(Range(0, 255)))
		case bytecode.IALoad:
			st.push(intVal(Full()))
		case bytecode.AALoad:
			o := s.defRef(st, pc)
			s.noteLen(o, Range(0, math.MaxInt64))
			st.push(aval{iv: Full(), null: MaybeNull, orig: o, from: -1, eqLen: noOrigin})
		default:
			st.push(top())
		}
	case bytecode.IAStore, bytecode.FAStore, bytecode.AAStore, bytecode.CAStore:
		st.pop()
		idx := st.pop()
		arr := st.pop()
		if arr.null == IsNull {
			return nil, nil
		}
		s.postAccess(st, arr, idx)

	case bytecode.GetField:
		obj := st.pop()
		if obj.null == IsNull {
			return nil, nil
		}
		derefNonNull(st, obj)
		st.push(s.fieldVal(st, pc, ins))
	case bytecode.PutField:
		st.pop()
		obj := st.pop()
		if obj.null == IsNull {
			return nil, nil
		}
		derefNonNull(st, obj)
	case bytecode.GetStatic:
		st.push(s.fieldVal(st, pc, ins))
	case bytecode.PutStatic:
		st.pop()

	case bytecode.MonitorEnter, bytecode.MonitorExit:
		obj := st.pop()
		if obj.null == IsNull {
			return nil, nil
		}
		derefNonNull(st, obj)

	case bytecode.Goto:
		return s.edge1(int(ins.A), st), nil

	case bytecode.IfEq, bytecode.IfNe, bytecode.IfLt, bytecode.IfGe,
		bytecode.IfGt, bytecode.IfLe:
		v := st.pop()
		return s.branch2(pc, int(ins.A), st, v, intVal(Point(0)), unaryRel(ins.Op)), nil

	case bytecode.IfICmpEq, bytecode.IfICmpNe, bytecode.IfICmpLt,
		bytecode.IfICmpGe, bytecode.IfICmpGt, bytecode.IfICmpLe:
		v2 := st.pop()
		v1 := st.pop()
		return s.branch2(pc, int(ins.A), st, v1, v2, cmpRel(ins.Op)), nil

	case bytecode.IfACmpEq, bytecode.IfACmpNe:
		v2 := st.pop()
		v1 := st.pop()
		taken := st.clone()
		eqSt, neSt := taken, st
		if ins.Op == bytecode.IfACmpNe {
			eqSt, neSt = st, taken
		}
		refineAgainstNull(eqSt, v1, v2, true)
		refineAgainstNull(neSt, v1, v2, false)
		return []edge{{pc + 1, st}, {int(ins.A), taken}}, nil

	case bytecode.IfNull, bytecode.IfNonNull:
		v := st.pop()
		refineNull := func(s2 *state, isNull bool) bool {
			if isNull {
				if v.null == NonNull {
					return false
				}
				s2.refineFrom(v, func(x *aval) { x.null = IsNull })
			} else {
				if v.null == IsNull {
					return false
				}
				s2.refineFrom(v, func(x *aval) { x.null = NonNull })
			}
			return true
		}
		takenNull := ins.Op == bytecode.IfNull
		taken := st.clone()
		var edges []edge
		if refineNull(taken, takenNull) {
			edges = append(edges, edge{int(ins.A), taken})
		}
		if refineNull(st, !takenNull) {
			edges = append(edges, edge{pc + 1, st})
		}
		return edges, nil

	case bytecode.InvokeVirtual, bytecode.InvokeStatic, bytecode.InvokeSpecial:
		return s.call(st, pc, ins)

	case bytecode.Return:
		s.a.markReturnsVoid(s.m)
		return nil, nil
	case bytecode.IReturn, bytecode.FReturn:
		s.a.mergeRet(s.m, st.pop(), Range(0, math.MaxInt64))
		return nil, nil
	case bytecode.AReturn:
		v := st.pop()
		s.a.mergeRet(s.m, v, lenBound(s.lenOf, v))
		return nil, nil

	default:
		return nil, errModel
	}
	return s.edge1(pc+1, st), nil
}

// edge1 returns the single edge to pc in the reused slot.
func (s *msolver) edge1(pc int, st *state) []edge {
	s.one[0] = edge{pc, st}
	return s.one[:]
}

// postAccess records what a completed (non-throwing) array access
// proves about its operands: the array is non-null and the index is in
// [0, len-1] — facts that flow back to the operands' locals.
func (s *msolver) postAccess(st *state, arr, idx aval) {
	derefNonNull(st, arr)
	lb := lenBound(s.lenOf, arr)
	hi := int64(math.MaxInt64)
	if lb.Hi < math.MaxInt64 {
		hi = lb.Hi - 1
	}
	o := arr.orig
	st.refineFrom(idx, func(v *aval) {
		if iv, ok := v.iv.Meet(Range(0, hi)); ok {
			v.iv = iv
		}
		if o != noOrigin {
			v.lt = addOrigin(v.lt, o)
		}
	})
}

// fieldVal models the value loaded by getfield/getstatic at pc.
func (s *msolver) fieldVal(st *state, pc int, ins bytecode.Instr) aval {
	if f := s.m.Class.Pool.Fields[ins.A].Resolved; f != nil && f.Type == bytecode.TRef {
		o := s.defRef(st, pc)
		s.noteLen(o, Range(0, math.MaxInt64))
		return aval{iv: Full(), null: MaybeNull, orig: o, from: -1, eqLen: noOrigin}
	}
	return top()
}

// arith is the integer ALU transfer, overflow-safe throughout, with
// the symbolic carries that keep `len-k` and `x % len` style indices
// provable.
func (s *msolver) arith(op bytecode.Op, a, b aval) aval {
	out := top()
	switch op {
	case bytecode.IAdd:
		out.iv = a.iv.Add(b.iv)
		out.lt = carryDecreased(a, b.iv, out.lt)
		out.lt = carryDecreased(b, a.iv, out.lt)
	case bytecode.ISub:
		out.iv = a.iv.Sub(b.iv)
		if b.iv.Lo >= 0 {
			out.lt = append([]origin(nil), a.lt...)
			if a.eqLen != noOrigin && b.iv.Lo >= 1 {
				out.lt = addOrigin(out.lt, a.eqLen)
			}
		}
	case bytecode.IMul:
		out.iv = a.iv.Mul(b.iv)
	case bytecode.IDiv:
		if a.iv.Lo >= 0 && b.iv.Lo >= 1 {
			out.iv = Range(0, a.iv.Hi)
		}
	case bytecode.IRem:
		if b.iv.Lo >= 1 {
			if a.iv.Lo >= 0 {
				out.iv = Range(0, b.iv.Hi-1)
				// r < b, so every upper bound on b bounds r too.
				out.lt = append([]origin(nil), b.lt...)
				if b.eqLen != noOrigin {
					out.lt = addOrigin(out.lt, b.eqLen)
				}
			} else if b.iv.Hi <= math.MaxInt64-1 {
				out.iv = Range(-(b.iv.Hi - 1), b.iv.Hi-1)
			}
		}
	case bytecode.IAnd:
		switch {
		case b.iv.Lo == b.iv.Hi && b.iv.Lo >= 0:
			out.iv = Range(0, b.iv.Lo)
		case a.iv.Lo == a.iv.Hi && a.iv.Lo >= 0:
			out.iv = Range(0, a.iv.Lo)
		case a.iv.Lo >= 0 && b.iv.Lo >= 0:
			out.iv = Range(0, min(a.iv.Hi, b.iv.Hi))
		}
	case bytecode.IOr, bytecode.IXor:
		if a.iv.Lo >= 0 && b.iv.Lo >= 0 {
			out.iv = Range(0, math.MaxInt64)
		}
	case bytecode.IShl:
		if b.iv.Lo == b.iv.Hi && b.iv.Lo >= 0 && b.iv.Lo <= 62 {
			out.iv = a.iv.Mul(Point(int64(1) << uint(b.iv.Lo)))
		}
	case bytecode.IShr:
		if b.iv.Lo == b.iv.Hi && b.iv.Lo >= 0 && b.iv.Lo <= 63 {
			k := uint(b.iv.Lo)
			out.iv = Range(a.iv.Lo>>k, a.iv.Hi>>k)
		} else if a.iv.Lo >= 0 {
			out.iv = Range(0, a.iv.Hi)
		}
	case bytecode.IUshr:
		if a.iv.Lo >= 0 {
			if b.iv.Lo == b.iv.Hi && b.iv.Lo >= 0 && b.iv.Lo <= 63 {
				k := uint(b.iv.Lo)
				out.iv = Range(a.iv.Lo>>k, a.iv.Hi>>k)
			} else {
				out.iv = Range(0, a.iv.Hi)
			}
		}
	}
	return out
}

// carryDecreased keeps x's strict upper bounds when adding a
// non-positive delta (x + d <= x < len), including the bound implied
// by x == len when the delta is strictly negative.
func carryDecreased(x aval, delta Interval, lt []origin) []origin {
	if delta.Hi > 0 {
		return lt
	}
	for _, o := range x.lt {
		lt = addOrigin(lt, o)
	}
	if x.eqLen != noOrigin && delta.Hi <= -1 {
		lt = addOrigin(lt, x.eqLen)
	}
	return lt
}

// rel is a comparison relation for branch refinement.
type rel uint8

const (
	relEq rel = iota
	relNe
	relLt
	relGe
	relGt
	relLe
)

func unaryRel(op bytecode.Op) rel {
	switch op {
	case bytecode.IfEq:
		return relEq
	case bytecode.IfNe:
		return relNe
	case bytecode.IfLt:
		return relLt
	case bytecode.IfGe:
		return relGe
	case bytecode.IfGt:
		return relGt
	}
	return relLe
}

func cmpRel(op bytecode.Op) rel {
	switch op {
	case bytecode.IfICmpEq:
		return relEq
	case bytecode.IfICmpNe:
		return relNe
	case bytecode.IfICmpLt:
		return relLt
	case bytecode.IfICmpGe:
		return relGe
	case bytecode.IfICmpGt:
		return relGt
	}
	return relLe
}

func negate(r rel) rel {
	switch r {
	case relEq:
		return relNe
	case relNe:
		return relEq
	case relLt:
		return relGe
	case relGe:
		return relLt
	case relGt:
		return relLe
	}
	return relGt
}

// branch2 builds the two outgoing edges of a comparison `a REL b`,
// refining each side's operands (and their backing locals) under the
// edge's now-known relation. An edge whose refinement is contradictory
// is dropped.
func (s *msolver) branch2(pc, target int, fallSt *state, a, b aval, r rel) []edge {
	var edges []edge
	takenSt := fallSt.clone()
	if refineRel(takenSt, a, b, r) {
		edges = append(edges, edge{target, takenSt})
	}
	if refineRel(fallSt, a, b, negate(r)) {
		edges = append(edges, edge{pc + 1, fallSt})
	}
	return edges
}

// refineRel narrows a and b under `a REL b` in st; false means the
// relation is impossible for the incoming intervals (dead edge).
func refineRel(st *state, a, b aval, r rel) bool {
	na, nb := a, b
	switch r {
	case relEq:
		iv, ok := a.iv.Meet(b.iv)
		if !ok {
			return false
		}
		na.iv, nb.iv = iv, iv
		// a == b transfers b's symbolic bounds to a and vice versa.
		for _, o := range b.lt {
			na.lt = addOrigin(na.lt, o)
		}
		for _, o := range a.lt {
			nb.lt = addOrigin(nb.lt, o)
		}
		if b.eqLen != noOrigin && na.eqLen == noOrigin {
			na.eqLen = b.eqLen
		}
		if a.eqLen != noOrigin && nb.eqLen == noOrigin {
			nb.eqLen = a.eqLen
		}
	case relNe:
		if a.iv.Lo == a.iv.Hi && a.iv.Lo == b.iv.Lo && a.iv.Lo == b.iv.Hi {
			return false
		}
		if b.iv.Lo == b.iv.Hi {
			na.iv = shaveEndpoint(a.iv, b.iv.Lo)
		}
		if a.iv.Lo == a.iv.Hi {
			nb.iv = shaveEndpoint(b.iv, a.iv.Lo)
		}
	case relLt, relLe:
		strict := int64(0)
		if r == relLt {
			strict = 1
		}
		if bHi, ok := subChecked(b.iv.Hi, strict); ok {
			iv, mok := a.iv.Meet(Range(math.MinInt64, bHi))
			if !mok {
				return false
			}
			na.iv = iv
		}
		if aLo, ok := addChecked(a.iv.Lo, strict); ok {
			iv, mok := b.iv.Meet(Range(aLo, math.MaxInt64))
			if !mok {
				return false
			}
			nb.iv = iv
		}
		// a <(=) b: every strict bound on b bounds a, and b == len(o)
		// makes a < len(o) when the comparison is strict.
		for _, o := range b.lt {
			na.lt = addOrigin(na.lt, o)
		}
		if r == relLt && b.eqLen != noOrigin {
			na.lt = addOrigin(na.lt, b.eqLen)
		}
	case relGt, relGe:
		strict := int64(0)
		if r == relGt {
			strict = 1
		}
		if aHi, ok := subChecked(a.iv.Hi, strict); ok {
			iv, mok := b.iv.Meet(Range(math.MinInt64, aHi))
			if !mok {
				return false
			}
			nb.iv = iv
		}
		if bLo, ok := addChecked(b.iv.Lo, strict); ok {
			iv, mok := a.iv.Meet(Range(bLo, math.MaxInt64))
			if !mok {
				return false
			}
			na.iv = iv
		}
		for _, o := range a.lt {
			nb.lt = addOrigin(nb.lt, o)
		}
		if r == relGt && a.eqLen != noOrigin {
			nb.lt = addOrigin(nb.lt, a.eqLen)
		}
	}
	st.refineFrom(a, func(v *aval) { v.iv, v.lt, v.eqLen = na.iv, na.lt, na.eqLen })
	st.refineFrom(b, func(v *aval) { v.iv, v.lt, v.eqLen = nb.iv, nb.lt, nb.eqLen })
	return true
}

// shaveEndpoint tightens iv by excluding the single value v when it
// sits on an endpoint.
func shaveEndpoint(iv Interval, v int64) Interval {
	if iv.Lo == v && iv.Lo < iv.Hi {
		iv.Lo++
	} else if iv.Hi == v && iv.Lo < iv.Hi {
		iv.Hi--
	}
	return iv
}

// refineAgainstNull handles if_acmpeq/ne when one side is the null
// constant: on the equal edge the other side is null, on the not-equal
// edge it is non-null.
func refineAgainstNull(st *state, a, b aval, equal bool) {
	want := NonNull
	if equal {
		want = IsNull
	}
	if b.null == IsNull {
		st.refineFrom(a, func(v *aval) { v.null = want })
	}
	if a.null == IsNull {
		st.refineFrom(b, func(v *aval) { v.null = want })
	}
}

// call models an invoke site: argument joins flow into every possible
// callee's entry summary, and the pushed result is the join of the
// callees' return summaries. A site none of whose callees has been
// seen to return yet has no fall-through (the interprocedural rounds
// revisit it once a callee's summary grows).
func (s *msolver) call(st *state, pc int, ins bytecode.Instr) ([]edge, error) {
	callee := s.m.Class.Pool.Methods[ins.A].Resolved
	if callee == nil {
		return nil, errModel
	}
	nargs := callee.NumArgs()
	if len(st.stack) < nargs {
		return nil, errUnderflow
	}
	// args aliases the popped slots: it is read before the result push
	// reuses them.
	args := st.stack[len(st.stack)-nargs:]
	st.drop(nargs)
	if !callee.IsStatic() {
		if args[0].null == IsNull {
			return nil, nil // guaranteed NullPointer: no fall-through
		}
		derefNonNull(st, args[0])
	}

	var ret aval
	var retLen Interval
	returns := false
	joinRet := func(v aval, lenIv Interval) {
		if !returns {
			ret, retLen, returns = v, lenIv, true
			return
		}
		ret = joinVal(ret, v)
		retLen = retLen.Join(lenIv)
	}

	var targets []*bytecode.Method
	if ins.Op == bytecode.InvokeVirtual && callee.VIndex >= 0 {
		targets = s.a.res.Targets[ipa.Site{Method: s.m.ID, PC: pc}]
		if len(targets) == 0 {
			// No instantiated receiver class: the receiver can only be
			// null, so the call always throws.
			return nil, nil
		}
	} else {
		targets = []*bytecode.Method{callee}
	}

	for _, t := range targets {
		if t.Class.Name == "Sys" || s.a.sums[t] == nil {
			// Intrinsic or unmodeled body: top effect.
			joinRet(top(), Range(0, math.MaxInt64))
			continue
		}
		s.a.enter(t)
		for i, arg := range args {
			s.a.mergeArg(t, i, arg, lenBound(s.lenOf, arg))
		}
		ts := s.a.sums[t]
		s.read(ts)
		if ts.returns {
			joinRet(ts.ret, ts.retLen)
		}
	}
	if !returns {
		return nil, nil
	}

	switch callee.Sig.Ret {
	case bytecode.TVoid:
	case bytecode.TRef:
		o := s.defRef(st, pc)
		s.noteLen(o, retLen)
		st.push(aval{iv: Full(), null: ret.null, orig: o, from: -1, eqLen: noOrigin})
	case bytecode.TInt:
		st.push(intVal(ret.iv))
	default:
		st.push(top())
	}
	return s.edge1(pc+1, st), nil
}

// read notes that the solve depends on ts's return side.
func (s *msolver) read(ts *msum) {
	sum := s.a.sums[s.m]
	for _, r := range sum.reads {
		if r == ts {
			return
		}
	}
	sum.reads = append(sum.reads, ts)
}
