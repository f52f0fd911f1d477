package interp

import (
	"math/rand"
	"reflect"
	"testing"

	"jrs/internal/bytecode"
	"jrs/internal/emit"
	"jrs/internal/trace"
)

// TestInterpTemplatesMatchSeq checks every opcode's patched template
// against the Seq code it was captured from, at random bytecode and
// locals addresses and in every phase: the head and the tail must be
// the same instructions, counted the same, and the handler body's Seq
// must resume where emitHead leaves its Seq.
func TestInterpTemplatesMatchSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for op := bytecode.Op(0); op < bytecode.NumOps; op++ {
		for k := range 6 {
			bc, locals := rng.Uint64(), rng.Uint64()
			phase := trace.Phase(k % int(trace.NumPhases))
			var got, want recorder
			in := &Interp{EM: emit.New(&got, phase)}
			em := emit.New(&want, phase)

			in.head(&templates[op], bc, locals)
			h, wh := in.EM.Resume(templates[op].body), emitHead(em, op, bc, locals)
			if g, w := got.take(), want.take(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%v head at bc=%#x locals=%#x phase %v:\n got %+v\nwant %+v", op, bc, locals, phase, g, w)
			}
			if h.Pos() != wh.Pos() {
				t.Fatalf("%v: body resumes at %+v, Seq at %+v", op, h.Pos(), wh.Pos())
			}
			in.tail(&templates[op], locals)
			emitTail(em, op, locals)
			if g, w := got.take(), want.take(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%v tail at locals=%#x phase %v:\n got %+v\nwant %+v", op, locals, phase, g, w)
			}
			if in.EM.Count != em.Count {
				t.Fatalf("%v: template counted %d instructions, Seq %d", op, in.EM.Count, em.Count)
			}
		}
	}
}
