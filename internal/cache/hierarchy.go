package cache

import (
	"cmp"
	"slices"
	"sync"

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

// Release hands the hierarchy's caches back for later hierarchies to
// reuse (Cache.Release), and the buffers of its group of one. Its
// counters stay readable until a New takes the caches again; release a
// hierarchy only once no group feeds it.
func (h *Hierarchy) Release() {
	h.I.Release()
	h.D.Release()
	if h.solo != nil {
		h.solo.release()
		h.solo = nil
	}
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
		h.solo.plan()
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
// previous fetch's end. hit records whether the last cache stepped
// through it hit.
type fetch struct {
	line uint64
	end  int32
	hit  bool
}

// ref is a run of consecutive data references to one D-line (a single
// reference unless the bucket merges). write is the first
// reference's kind, which decides a miss's class; dirty is set when a
// later reference of the run writes. hit records whether the last
// cache stepped through it hit.
type ref struct {
	line              uint64
	write, dirty, hit bool
}

// install is a direct install of an I-line by the store batch[at].
type install struct {
	at   int
	line uint64
}

// span is a same-phase stretch of a reduced batch: it ends before
// instruction end, fetch fetchEnd and reference run refEnd, and its
// runs hold reads loads and writes stores.
type span struct {
	phase                 trace.Phase
	end, fetchEnd, refEnd int
	reads, writes         uint64
}

// bucket is the hierarchies of a group that share one bucketKey, and
// the current batch reduced at that key. Every fetch of a run after
// the first repeats the run's line, and so does every reference of a
// merged run, so stepping each I-cache through the fetch runs and
// installs and each D-cache through the reference runs, span by span,
// counts exactly what per-instruction probes would. The I and D
// streams touch different caches, so every cache steps on its own.
//
// When every D cache write-allocates, each reference fills its line,
// and the bucket merges consecutive references to one D-line: after
// the first, each is a hit by the repeat-line filter's argument, in
// any phase, and a hit changes no per-phase counter but the span's
// reference count. So a run may cross a span, and it is probed in the
// span it starts in. Filling on every reference also lets the
// direct-mapped caches of a side form a chain (see chain): a hit in
// the one with the fewest sets is a hit in every other.
type bucket struct {
	key bucketKey
	hs  []*Hierarchy
	// is and ds are the bucket's I and D caches in stepping order; the
	// first iChain and dChain of them are each side's chain, head
	// first (0: no chain).
	is, ds         []*Cache
	iChain, dChain int
	merge          bool
	*reduction
}

// reduction is a bucket's current batch, reduced. Its buffers grow to
// the largest batch seen and are rebuilt by every reduce, so a bucket
// takes them from reductions and release hands them back.
type reduction struct {
	spans    []span
	fetches  []fetch
	refs     []ref
	installs []install
}

var reductions = sync.Pool{New: func() any { return new(reduction) }}

func newBucket(k bucketKey, hs ...*Hierarchy) *bucket {
	return &bucket{key: k, hs: hs, reduction: reductions.Get().(*reduction)}
}

// release hands the bucket's buffers back and drops its hierarchies.
func (b *bucket) release() {
	reductions.Put(b.reduction)
	*b = bucket{}
}

// plan sets the bucket's stepping order once every member is in. The
// D side merges and chains only when every D cache write-allocates: a
// write-no-allocate write miss fills nothing. The I side chains only
// without direct installs.
func (b *bucket) plan() {
	b.merge = true
	for _, h := range b.hs {
		b.is, b.ds = append(b.is, h.I), append(b.ds, h.D)
		b.merge = b.merge && h.D.cfg.WriteAllocate
	}
	if !b.key.direct {
		b.iChain = chain(b.is)
	}
	if b.merge {
		b.dChain = chain(b.ds)
	}
}

// chain moves the direct-mapped caches of cs that have not been
// accessed yet to its front, fewest sets first, and returns their
// number, or 0 when there are fewer than two. The caches of one side
// of a bucket share a line size and see the same references, and in a
// chain every reference fills its line. So each set of a chain cache
// holds the newest line of all that map to it. The head's sets are
// unions of a larger member's sets, so the newest line of a head set
// is the newest of its member set too: a head hit is a member hit, and
// a direct-mapped hit changes no state but the dirty bit. A chain
// member must not be flushed or fed on its own.
func chain(cs []*Cache) int {
	in := func(c *Cache) bool { return c.assoc == 1 && c.tick == 0 }
	slices.SortStableFunc(cs, func(a, b *Cache) int {
		switch ia, ib := in(a), in(b); {
		case ia && ib:
			return cmp.Compare(len(a.ways), len(b.ways))
		case ia:
			return -1
		case ib:
			return 1
		}
		return 0
	})
	n := 0
	for n < len(cs) && in(cs[n]) {
		n++
	}
	if n < 2 {
		return 0
	}
	return n
}

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
	f, r := -1, 0
	var reads, writes uint64
	phase, prev := batch[0].Phase, ^(batch[0].PC >> iShift)
	for i := range batch {
		in := &batch[i]
		line := in.PC >> iShift
		if in.Phase != phase {
			b.spans = append(b.spans, span{phase, i, f + 1, r, reads, writes})
			phase, prev, reads, writes = in.Phase, ^line, 0, 0
		}
		d := line ^ prev
		f += int((d | -d) >> 63) // 1 when the line changed
		fs[f] = fetch{line: line, end: int32(i + 1)}
		prev = line
		var write bool
		switch in.Class {
		case trace.Load:
			reads++
		case trace.Store:
			if k.direct && in.Addr >= k.low && in.Addr < k.high {
				b.installs = append(b.installs, install{i, in.Addr >> iShift})
				continue
			}
			write = true
			writes++
		default:
			continue
		}
		dl := in.Addr >> dShift
		if b.merge && r > 0 && rs[r-1].line == dl {
			rs[r-1].dirty = rs[r-1].dirty || write
			continue
		}
		rs[r] = ref{line: dl, write: write}
		r++
	}
	b.spans = append(b.spans, span{phase, len(batch), f + 1, r, reads, writes})
	b.fetches, b.refs = fs[:f+1], rs[:r]
}

// emit reduces batch once and steps every cache of the bucket through
// it. Each side steps its chain's head first and its members next, so
// the hit bits the members read are the head's; every other cache
// records hits too, but no member reads them.
func (b *bucket) emit(batch []trace.Inst) {
	if len(batch) == 0 {
		return
	}
	b.reduce(batch)
	for i, c := range b.is {
		b.stepI(c, i > 0 && i < b.iChain)
	}
	for i, c := range b.ds {
		b.stepD(c, i > 0 && i < b.dChain)
	}
}

// stepI steps an I-cache through the reduction: per span, the fetches
// are counted in one step and then probed once per run, recording
// hits. A chain member probes only the runs the head missed. An
// install splits the run it falls in, and the fetches after it probe
// the line afresh; a bucket with installs has no I chain.
func (b *bucket) stepI(c *Cache, member bool) {
	f, next, done := 0, 0, 0
	for _, s := range b.spans {
		c.SetPhase(int(s.phase))
		c.count(uint64(s.end-done), 0)
		fs := b.fetches[f:s.fetchEnd]
		switch {
		case member:
			for _, e := range fs {
				if !e.hit {
					c.probe(e.line, false)
				}
			}
		case len(b.installs) == 0:
			for j := range fs {
				fs[j].hit = c.probe(fs[j].line, false)
			}
		default:
			// done is the number of instructions whose fetches are probed.
			for _, e := range fs {
				end := int(e.end)
				for ; next < len(b.installs) && b.installs[next].at < end; next++ {
					c.probe(e.line, false)
					c.installLine(b.installs[next].line)
					done = b.installs[next].at + 1
				}
				if end > done {
					c.probe(e.line, false)
				}
				done = end
			}
		}
		f, done = s.fetchEnd, s.end
	}
}

// stepD steps a D-cache through the reduction: per span, the
// references are counted in one step and then probed once per run,
// recording hits. A run's later write repeats its line, so it probes
// again as a write, which the repeat-line filter turns into setting
// the dirty bit. A chain member probes only the runs the head missed;
// where the head hit, the member's line is resident at the one way of
// its set, and a run that writes sets that way's dirty bit.
func (b *bucket) stepD(c *Cache, member bool) {
	j := 0
	for _, s := range b.spans {
		c.SetPhase(int(s.phase))
		c.count(s.reads, s.writes)
		rs := b.refs[j:s.refEnd]
		if member {
			for _, e := range rs {
				switch {
				case !e.hit:
					c.probe(e.line, e.write)
					if e.dirty {
						c.probe(e.line, true)
					}
				case e.write || e.dirty:
					c.ways[e.line&c.setMask].stamp |= 1
				}
			}
		} else {
			for k := range rs {
				e := &rs[k]
				e.hit = c.probe(e.line, e.write)
				if e.dirty {
					c.probe(e.line, true)
				}
			}
		}
		j = s.refEnd
	}
}

// Group is the sink NewGroup returns: Release hands back the buffers
// it reduces batches into.
type Group interface {
	trace.Sink
	Release()
}

// group is the Group NewGroup builds.
type group struct{ buckets []*bucket }

// NewGroup returns a Group that feeds one trace to every hierarchy in
// hs, with the exact counters of attaching each on its own. Each batch
// is reduced once per bucket, the hierarchies sharing I line size, D
// line size and direct-install range, and every cache in the bucket
// steps off that reduction. Set DirectInstall and the code range before
// grouping. A grouped hierarchy's caches belong to the group: do not
// flush them or feed them any other way. The buckets take their
// reduction buffers from a pool; Release hands them back.
func NewGroup(hs ...*Hierarchy) Group {
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
	for _, b := range g.buckets {
		b.plan()
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

// Release drops the group's hierarchies and hands its reduction
// buffers back for a later group to reuse. The hierarchies keep their
// counters and caches, which Hierarchy.Release hands back; a released
// group counts nothing it is fed. Releasing twice does nothing, and a
// group never released leaves its buffers to the garbage collector.
func (g *group) Release() {
	for _, b := range g.buckets {
		b.release()
	}
	g.buckets = nil
}

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
