package cache

import (
	"slices"

	"jrs/internal/trace"
)

// Hierarchy couples a split L1 instruction/data cache pair to the native
// trace stream. It is the standard memory-system observer the experiment
// harness attaches: every instruction fetch probes the I-cache at the PC
// and every Load/Store probes the D-cache at the effective address, with
// the instruction's Phase attributed to the per-phase counters so the
// translate portion of JIT execution can be isolated (Figure 5). I and
// D must be distinct caches.
type Hierarchy struct {
	I *Cache
	D *Cache
	// DirectInstall, when set, models the paper's §6 "generate code into
	// the I-cache" proposal: stores into the code cache bypass the
	// D-cache and install the line in the I-cache instead.
	DirectInstall bool
	// CodeLow/CodeHigh bound the code-cache segment used by
	// DirectInstall filtering.
	CodeLow, CodeHigh uint64

	solo *bucket // the group of one EmitBatch runs
}

// NewHierarchy builds a split hierarchy with the two configurations.
func NewHierarchy(icfg, dcfg Config) *Hierarchy {
	return &Hierarchy{I: New(icfg), D: New(dcfg)}
}

// PaperDefault returns the headline configuration of Table 3: 64KB
// caches, 32-byte lines, 2-way I and 4-way D, write-allocate.
func PaperDefault() *Hierarchy {
	return NewHierarchy(
		Config{Name: "I", Size: 64 << 10, LineSize: 32, Assoc: 2, WriteAllocate: true},
		Config{Name: "D", Size: 64 << 10, LineSize: 32, Assoc: 4, WriteAllocate: true},
	)
}

// Emit implements trace.Sink.
func (h *Hierarchy) Emit(in trace.Inst) { h.EmitBatch([]trace.Inst{in}) }

// EmitBatch implements trace.Sink as a group of one.
func (h *Hierarchy) EmitBatch(batch []trace.Inst) {
	if k := h.key(); h.solo == nil || h.solo.key != k {
		h.solo = newBucket(k, h)
	}
	h.solo.emit(batch)
}

// bucketKey is everything a batch's reduction depends on: the I and D
// line sizes and the direct-install range.
type bucketKey struct {
	iShift, dShift uint
	direct         bool
	low, high      uint64
}

func (h *Hierarchy) key() bucketKey {
	if h.I == h.D {
		panic("cache: a hierarchy's I and D must be distinct caches")
	}
	k := bucketKey{iShift: h.I.lineShift, dShift: h.D.lineShift}
	if h.DirectInstall {
		k.direct, k.low, k.high = true, h.CodeLow, h.CodeHigh
	}
	return k
}

// fetch ends a run of consecutive instruction fetches from one I-line:
// the run's last instruction is batch[end-1], and it began after the
// previous fetch's end.
type fetch struct {
	line uint64
	end  int
}

// ref is one data reference to a D-line.
type ref struct {
	line  uint64
	write bool
}

// install is a direct install of an I-line by the store batch[at].
type install struct {
	at   int
	line uint64
}

// span is a same-phase stretch of a reduced batch: it ends before
// instruction end, fetch fetchEnd and reference refEnd, and writes of
// its references are stores.
type span struct {
	phase                 trace.Phase
	end, fetchEnd, refEnd int
	writes                uint64
}

// bucket is the hierarchies of a group that share one bucketKey, and
// the current batch reduced at that key. Every fetch of a run after
// the first repeats the run's line, and the I and D streams touch
// different caches, so each hierarchy stepping its I-cache through
// the fetches and installs and its D-cache through the references,
// span by span, counts exactly what per-instruction probes would.
type bucket struct {
	key      bucketKey
	hs       []*Hierarchy
	spans    []span
	fetches  []fetch
	refs     []ref
	installs []install
}

func newBucket(k bucketKey, hs ...*Hierarchy) *bucket { return &bucket{key: k, hs: hs} }

// reduce rebuilds the bucket's spans, fetches, references and installs
// from a non-empty batch. It stores every instruction's fetch run and
// only moves to a new entry when the line or the phase changes.
func (b *bucket) reduce(batch []trace.Inst) {
	k := b.key
	// Line sizes are powers of two below 2^64: masking the shifts
	// spares the compiler's oversized-shift handling.
	iShift, dShift := k.iShift&63, k.dShift&63
	fs := slices.Grow(b.fetches[:0], len(batch))[:len(batch)]
	rs := slices.Grow(b.refs[:0], len(batch))[:len(batch)]
	b.spans, b.installs = b.spans[:0], b.installs[:0]
	// prev starts, and restarts at a phase change, as the complement of
	// the line, so the instruction opens a new entry.
	f, r, writes := -1, 0, uint64(0)
	phase, prev := batch[0].Phase, ^(batch[0].PC >> iShift)
	for i := range batch {
		in := &batch[i]
		line := in.PC >> iShift
		if in.Phase != phase {
			b.spans = append(b.spans, span{phase, i, f + 1, r, writes})
			phase, prev, writes = in.Phase, ^line, 0
		}
		d := line ^ prev
		f += int((d | -d) >> 63) // 1 when the line changed
		fs[f] = fetch{line, i + 1}
		prev = line
		switch in.Class {
		case trace.Load:
			rs[r] = ref{in.Addr >> dShift, false}
			r++
		case trace.Store:
			if k.direct && in.Addr >= k.low && in.Addr < k.high {
				b.installs = append(b.installs, install{i, in.Addr >> iShift})
				continue
			}
			rs[r] = ref{in.Addr >> dShift, true}
			r++
			writes++
		}
	}
	b.spans = append(b.spans, span{phase, len(batch), f + 1, r, writes})
	b.fetches, b.refs = fs[:f+1], rs[:r]
}

// emit reduces batch once and steps every hierarchy of the bucket
// through it: per span, the references are counted in one step and
// then probed, the I-cache once per fetch run. An install splits the
// run it falls in, and the fetches after it probe the line afresh.
func (b *bucket) emit(batch []trace.Inst) {
	if len(batch) == 0 {
		return
	}
	b.reduce(batch)
	for _, h := range b.hs {
		// done is the number of instructions whose fetches are probed.
		f, r, next, done := 0, 0, 0, 0
		for _, s := range b.spans {
			h.I.SetPhase(int(s.phase))
			h.D.SetPhase(int(s.phase))
			h.I.count(uint64(s.end-done), 0)
			h.D.count(uint64(s.refEnd-r)-s.writes, s.writes)
			for _, e := range b.fetches[f:s.fetchEnd] {
				for ; next < len(b.installs) && b.installs[next].at < e.end; next++ {
					h.I.probe(e.line, false)
					h.I.installLine(b.installs[next].line)
					done = b.installs[next].at + 1
				}
				if e.end > done {
					h.I.probe(e.line, false)
				}
				done = e.end
			}
			for _, e := range b.refs[r:s.refEnd] {
				h.D.probe(e.line, e.write)
			}
			f, r = s.fetchEnd, s.refEnd
		}
	}
}

// group is the trace.Sink NewGroup returns.
type group struct{ buckets []*bucket }

// NewGroup returns a trace.Sink that feeds one trace to every
// hierarchy in hs, with the exact counters of attaching each on its
// own. Each batch is reduced once per bucket, the hierarchies sharing
// I line size, D line size and direct-install range, and every
// hierarchy in the bucket steps its caches off that reduction. Set
// DirectInstall and the code range before grouping.
func NewGroup(hs ...*Hierarchy) trace.Sink {
	g := &group{}
	index := map[bucketKey]*bucket{}
	for _, h := range hs {
		k := h.key()
		if b := index[k]; b != nil {
			b.hs = append(b.hs, h)
			continue
		}
		index[k] = newBucket(k, h)
		g.buckets = append(g.buckets, index[k])
	}
	return g
}

// EmitBatch implements trace.Sink.
func (g *group) EmitBatch(batch []trace.Inst) {
	for _, b := range g.buckets {
		b.emit(batch)
	}
}

// Emit implements trace.Sink.
func (g *group) Emit(in trace.Inst) { g.EmitBatch([]trace.Inst{in}) }

// Interval is one sampling window of miss counts (Figure 6's time
// profile).
type Interval struct {
	Instrs  uint64
	IMisses uint64
	DMisses uint64
	DRefs   uint64
	IRefs   uint64
}

// Sampler wraps a Hierarchy and records per-window miss counts every
// Window instructions, reproducing the paper's miss-rate-over-time plots.
type Sampler struct {
	H      *Hierarchy
	Window uint64

	count  uint64
	lastI  Stats
	lastD  Stats
	Series []Interval
}

// NewSampler samples h every window instructions. It panics on a zero
// window.
func NewSampler(h *Hierarchy, window uint64) *Sampler {
	if window == 0 {
		panic("cache: sampler window must be positive")
	}
	return &Sampler{H: h, Window: window}
}

// Emit implements trace.Sink.
func (s *Sampler) Emit(in trace.Inst) { s.EmitBatch([]trace.Inst{in}) }

// EmitBatch implements trace.Sink, splitting the batch at sampling
// window boundaries so every window closes at exactly the same
// instruction whatever the batch partition.
func (s *Sampler) EmitBatch(batch []trace.Inst) {
	for len(batch) > 0 {
		room := s.Window - s.count%s.Window
		n := uint64(len(batch))
		if n > room {
			n = room
		}
		s.H.EmitBatch(batch[:n])
		s.count += n
		if s.count%s.Window == 0 {
			s.flush()
		}
		batch = batch[n:]
	}
}

func (s *Sampler) flush() {
	i, d := s.H.I.Stats, s.H.D.Stats
	s.Series = append(s.Series, Interval{
		Instrs:  s.count,
		IMisses: i.Misses() - s.lastI.Misses(),
		DMisses: d.Misses() - s.lastD.Misses(),
		IRefs:   i.Refs() - s.lastI.Refs(),
		DRefs:   d.Refs() - s.lastD.Refs(),
	})
	s.lastI, s.lastD = i, d
}

// Finish flushes a trailing partial window, if any.
func (s *Sampler) Finish() {
	if s.count%s.Window != 0 {
		s.flush()
	}
}
