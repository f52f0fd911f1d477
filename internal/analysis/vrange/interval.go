// Package vrange is a whole-program value-range and nullness analysis
// over the loaded class set: an SCCP-style per-method dataflow
// (analysis.Solve on the CFGs ipa built) on an interval lattice with
// widening at loop heads, flow-sensitive
// nullness, and symbolic array-length facts (len(a) threaded through
// newarray/arraylength and interprocedural argument/return summaries
// on the ipa RTA call graph). Its verdicts — BoundsProven / NullProven
// per bytecode site — let the execution engines elide the runtime
// checks the paper charges to Java's dynamic safety semantics, and a
// dynamic oracle (package harness, behind `jrs -checkelide run`)
// re-validates every elided site at runtime so a soundness bug can
// never silently corrupt a run.
package vrange

import "math"

// Interval is a closed integer interval [Lo, Hi] over the VM's int64
// value domain. The full domain [MinInt64, MaxInt64] is the lattice
// top; empty intervals (Lo > Hi) are never stored in states — a
// refinement that would produce one marks its CFG edge unreachable
// instead.
type Interval struct{ Lo, Hi int64 }

// Full returns the top interval covering every representable value.
func Full() Interval { return Interval{math.MinInt64, math.MaxInt64} }

// Point returns the singleton interval [v, v].
func Point(v int64) Interval { return Interval{v, v} }

// Range returns [lo, hi].
func Range(lo, hi int64) Interval { return Interval{lo, hi} }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v int64) bool { return iv.Lo <= v && v <= iv.Hi }

// Join is the interval hull (least upper bound).
func (iv Interval) Join(o Interval) Interval {
	return Interval{min(iv.Lo, o.Lo), max(iv.Hi, o.Hi)}
}

// Meet intersects two intervals; ok is false when the intersection is
// empty (the combination is unreachable).
func (iv Interval) Meet(o Interval) (Interval, bool) {
	r := Interval{max(iv.Lo, o.Lo), min(iv.Hi, o.Hi)}
	return r, r.Lo <= r.Hi
}

// Widen extrapolates a growing bound to guarantee termination at loop
// heads: a sinking lower bound jumps to 0 if it stays non-negative
// (the threshold that preserves index-lower-bound proofs) and to
// MinInt64 otherwise; a rising upper bound jumps straight to MaxInt64.
// Loop exit conditions re-narrow the widened bound via branch
// refinement, so `i < a.length` loops still prove their accesses.
func (iv Interval) Widen(next Interval) Interval {
	out := iv.Join(next)
	if out.Lo < iv.Lo {
		if out.Lo >= 0 {
			out.Lo = 0
		} else {
			out.Lo = math.MinInt64
		}
	}
	if out.Hi > iv.Hi {
		out.Hi = math.MaxInt64
	}
	return out
}

// Add is overflow-safe interval addition: any bound computation that
// could wrap widens the result to Full, because the VM's concrete
// arithmetic wraps (Go int64) and a saturated bound would be unsound.
func (iv Interval) Add(o Interval) Interval {
	lo, ok1 := addChecked(iv.Lo, o.Lo)
	hi, ok2 := addChecked(iv.Hi, o.Hi)
	if !ok1 || !ok2 {
		return Full()
	}
	return Interval{lo, hi}
}

// Sub is overflow-safe interval subtraction.
func (iv Interval) Sub(o Interval) Interval {
	lo, ok1 := subChecked(iv.Lo, o.Hi)
	hi, ok2 := subChecked(iv.Hi, o.Lo)
	if !ok1 || !ok2 {
		return Full()
	}
	return Interval{lo, hi}
}

// Mul is overflow-safe interval multiplication (hull of the four
// corner products; Full on any overflow).
func (iv Interval) Mul(o Interval) Interval {
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, a := range [2]int64{iv.Lo, iv.Hi} {
		for _, b := range [2]int64{o.Lo, o.Hi} {
			p, ok := mulChecked(a, b)
			if !ok {
				return Full()
			}
			lo, hi = min(lo, p), max(hi, p)
		}
	}
	return Interval{lo, hi}
}

// Neg negates the interval (Full when MinInt64 is inside, which has no
// int64 negation).
func (iv Interval) Neg() Interval {
	if iv.Lo == math.MinInt64 {
		return Full()
	}
	return Interval{-iv.Hi, -iv.Lo}
}

func addChecked(a, b int64) (int64, bool) {
	s := a + b
	if (b > 0 && s < a) || (b < 0 && s > a) {
		return 0, false
	}
	return s, true
}

func subChecked(a, b int64) (int64, bool) {
	d := a - b
	if (b < 0 && d < a) || (b > 0 && d > a) {
		return 0, false
	}
	return d, true
}

func mulChecked(a, b int64) (int64, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/b != a || (a == math.MinInt64 && b == -1) {
		return 0, false
	}
	return p, true
}

// Nullness is the three-point reference lattice: NonNull and Null are
// incomparable facts, MaybeNull is their join (top). There is no
// bottom — unreachable states are simply absent.
type Nullness uint8

const (
	// MaybeNull is the unknown (top) element.
	MaybeNull Nullness = iota
	// NonNull means the reference is proven non-null.
	NonNull
	// IsNull means the reference is proven to be the null constant.
	IsNull
)

// JoinNull is the nullness least upper bound.
func JoinNull(a, b Nullness) Nullness {
	if a == b {
		return a
	}
	return MaybeNull
}

func (n Nullness) String() string {
	switch n {
	case NonNull:
		return "nonnull"
	case IsNull:
		return "null"
	}
	return "maybenull"
}
