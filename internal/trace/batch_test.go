package trace

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"
)

// recorder keeps the full stream and how it was partitioned into
// batches, to check both order and delivery granularity.
type recorder struct {
	insts   []Inst
	batches []int // length of each EmitBatch call; -1 marks a unit Emit
}

func (r *recorder) Emit(in Inst) {
	r.insts = append(r.insts, in)
	r.batches = append(r.batches, -1)
}

func (r *recorder) EmitBatch(batch []Inst) {
	r.insts = append(r.insts, batch...)
	r.batches = append(r.batches, len(batch))
}

func seqInsts(n int) []Inst {
	out := make([]Inst, n)
	for i := range out {
		out[i] = Inst{PC: uint64(i), Class: Class(i % int(NumClasses))}
	}
	return out
}

func TestTeeFlattensNestedTees(t *testing.T) {
	var a, b, c, d Counter
	nested := Tee(&a, Tee(&b, Tee(&c, &d)))
	tt, ok := nested.(*tee)
	if !ok {
		t.Fatalf("Tee of 4 sinks is %T, want *tee", nested)
	}
	if len(tt.sinks) != 4 {
		t.Fatalf("nested tee has %d members after flattening, want 4", len(tt.sinks))
	}
	for i, want := range []Sink{&a, &b, &c, &d} {
		if tt.sinks[i] != want {
			t.Errorf("member %d not inlined in construction order", i)
		}
	}
	nested.Emit(Inst{Class: ALU})
	for i, cnt := range []*Counter{&a, &b, &c, &d} {
		if cnt.Total != 1 {
			t.Errorf("member %d missed the fanned-out instruction", i)
		}
	}
}

func TestTeeFlatteningKeepsDegenerateCollapse(t *testing.T) {
	var a Counter
	if Tee(Tee(&a)) != Sink(&a) {
		t.Error("tee of single-collapsed tee should collapse")
	}
	if Tee(Tee(), Tee()) != Discard {
		t.Error("tee of empty tees should be Discard")
	}
}

func TestBatcherFlushesFixedBatchesInOrder(t *testing.T) {
	rec := &recorder{}
	b := NewBatcher(rec, 4)
	in := seqInsts(10)
	for _, i := range in {
		b.Add(i)
	}
	if got := b.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	b.Flush()
	b.Flush() // idempotent when empty
	if !reflect.DeepEqual(rec.insts, in) {
		t.Fatalf("stream reordered or lost: got %d insts", len(rec.insts))
	}
	if want := []int{4, 4, 2}; !reflect.DeepEqual(rec.batches, want) {
		t.Fatalf("batch partition = %v, want %v", rec.batches, want)
	}
}

// TestBatcherPendingCompensatesClock pins the invariant core.Engine.now
// relies on: a downstream counter's Total plus the batcher's Pending()
// is the exact number of instructions emitted so far, at every point in
// the stream, for any batch size.
func TestBatcherPendingCompensatesClock(t *testing.T) {
	var clock Counter
	b := NewBatcher(&clock, 4)
	for n, in := range seqInsts(11) {
		b.Add(in)
		if got := clock.Total + uint64(b.Pending()); got != uint64(n)+1 {
			t.Fatalf("after %d adds: Total(%d)+Pending(%d) = %d", n+1, clock.Total, b.Pending(), got)
		}
	}
	b.Flush()
	if clock.Total != 11 || b.Pending() != 0 {
		t.Fatalf("after flush: Total = %d, Pending = %d", clock.Total, b.Pending())
	}
}

func TestBatcherEmitBatchPreservesOrderAroundBuffered(t *testing.T) {
	rec := &recorder{}
	b := NewBatcher(rec, 8)
	in := seqInsts(7)
	b.Add(in[0])
	b.Add(in[1])
	b.EmitBatch(in[2:6])
	b.Add(in[6])
	b.Flush()
	if !reflect.DeepEqual(rec.insts, in) {
		t.Fatalf("order across Add/EmitBatch interleave broken")
	}
}

func TestSwitchableEmitBatch(t *testing.T) {
	var c Counter
	sw := &Switchable{}
	sw.EmitBatch(seqInsts(3)) // dropped: no destination
	sw.S = &c
	sw.EmitBatch(seqInsts(3))
	if c.Total != 3 {
		t.Fatalf("switchable batch: %d, want 3", c.Total)
	}
}

// Property: Counter.EmitBatch over any partition of a stream equals
// per-instruction Emit of the same stream.
func TestCounterEmitBatchEquivalenceProperty(t *testing.T) {
	f := func(classes []uint8, cut uint8) bool {
		in := make([]Inst, len(classes))
		for i, b := range classes {
			in[i] = Inst{
				Class: Class(b % uint8(NumClasses)),
				Phase: Phase(b % uint8(NumPhases)),
			}
		}
		var one, batched Counter
		for _, i := range in {
			one.Emit(i)
		}
		k := 0
		if len(in) > 0 {
			k = int(cut) % (len(in) + 1)
		}
		batched.EmitBatch(in[:k])
		batched.EmitBatch(in[k:])
		return one == batched
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a Batcher of any size delivers exactly the input stream.
func TestBatcherDeliveryProperty(t *testing.T) {
	f := func(pcs []uint16, size uint8) bool {
		b := NewBatcher(&recorder{}, int(size%32)+1)
		rec := b.out.(*recorder)
		var want []Inst
		for _, pc := range pcs {
			in := Inst{PC: uint64(pc)}
			want = append(want, in)
			b.Add(in)
		}
		b.Flush()
		return reflect.DeepEqual(rec.insts, want) ||
			(len(rec.insts) == 0 && len(want) == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewBatcherDefaults(t *testing.T) {
	b := NewBatcher(nil, 0)
	if b.Cap() != BatchSize {
		t.Fatalf("default capacity = %d, want BatchSize (%d)", b.Cap(), BatchSize)
	}
	b.Add(Inst{}) // must not panic with Discard downstream
	b.Flush()
}

// TestInstSize pins the size of an Inst record: the batch buffer's
// footprint and the cost of copying an interpreter template scale
// with it.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n != 32 {
		t.Errorf("Inst is %d bytes, want 32", n)
	}
}

// TestAddNMatchesAdd requires AddN to deliver the same stream in the
// same batches as one Add per instruction, for sequences shorter and
// longer than the buffer, from any fill level.
func TestAddNMatchesAdd(t *testing.T) {
	for _, size := range []int{1, 2, 3, 7, 16} {
		for _, n := range []int{0, 1, 5, 17, 40} {
			for pre := range size {
				var one, many recorder
				a, b := NewBatcher(&one, size), NewBatcher(&many, size)
				for _, in := range seqInsts(pre) {
					a.Add(in)
					b.Add(in)
				}
				for _, in := range seqInsts(n) {
					a.Add(in)
				}
				b.AddN(seqInsts(n))
				a.Flush()
				b.Flush()
				if !reflect.DeepEqual(one, many) {
					t.Fatalf("size %d, %d buffered, AddN of %d: batches %v, Add gives %v",
						size, pre, n, many.batches, one.batches)
				}
			}
		}
	}
}
