package harness

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"jrs/internal/core"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// engineFingerprint formats everything a batch-size change could
// plausibly disturb: the full phase/class instruction breakdown, the
// per-method accounting (which reads the clock mid-run), and whatever a
// measured sink observed.
func engineFingerprint(e *core.Engine, sink *trace.Counter) string {
	return fmt.Sprintf("clock=%+v\nstats=%+v\nsink=%+v\n", *e.Clock, e.Stats, *sink)
}

// runFingerprint executes one workload/mode cell at the given transport
// batch size (trace.BatchSize, restored on return) and returns its
// fingerprint.
func runFingerprint(t testing.TB, w workloads.Workload, mode Mode, batchSize int) string {
	t.Helper()
	old := trace.BatchSize
	defer func() { trace.BatchSize = old }()
	trace.BatchSize = batchSize
	var sink trace.Counter
	e, err := RunCtx(context.Background(), w, w.BenchN, mode, core.Config{}, &sink)
	if err != nil {
		t.Fatalf("%s/%v batch=%d: %v", w.Name, mode, batchSize, err)
	}
	return engineFingerprint(e, &sink)
}

// TestBatchedTransportEquivalence requires the batched transport to be
// observationally invisible: every workload under every execution mode,
// and every registered experiment's full report, must come out
// byte-identical whether instructions travel one at a time or in
// DefaultBatchSize buffers.
func TestBatchedTransportEquivalence(t *testing.T) {
	all := append([]workloads.Workload{}, workloads.Seven()...)
	if hello, ok := workloads.ByName("hello"); ok {
		all = append(all, hello)
	}
	for _, w := range all {
		for _, mode := range []Mode{ModeInterp, ModeJIT, ModeAOT} {
			t.Run(fmt.Sprintf("%s/%v", w.Name, mode), func(t *testing.T) {
				unbatched := runFingerprint(t, w, mode, 1)
				batched := runFingerprint(t, w, mode, trace.DefaultBatchSize)
				if unbatched != batched {
					t.Errorf("batched run diverges from per-instruction run:\n--- batch=1 ---\n%s--- batch=%d ---\n%s",
						unbatched, trace.DefaultBatchSize, batched)
				}
			})
		}
	}

	// Every experiment's formatted report must be byte-identical
	// either way.
	t.Run("experiments", func(t *testing.T) {
		o := helloOpts()
		old := trace.BatchSize
		defer func() { trace.BatchSize = old }()

		trace.BatchSize = 1
		unbatched, err := RunAllWith(o, serialRunner(), nil)
		if err != nil {
			t.Fatal(err)
		}
		trace.BatchSize = trace.DefaultBatchSize
		batched, err := RunAllWith(o, serialRunner(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if unbatched != batched {
			t.Error("full experiment grid renders differently batched vs unbatched")
		}
	})
}

// FuzzBatchedTransport fuzzes the transport's batch size over a seeded
// bytecode program in all three execution modes: any size must
// reproduce the per-instruction reference exactly. Seeds cover the
// degenerate size, a ragged odd size, and a larger-than-default buffer.
func FuzzBatchedTransport(f *testing.F) {
	f.Add(uint16(1))
	f.Add(uint16(7))
	f.Add(uint16(4096))

	hello, ok := workloads.ByName("hello")
	if !ok {
		f.Fatal("hello workload missing")
	}
	modes := []Mode{ModeInterp, ModeJIT, ModeAOT}
	refs := make([]string, len(modes))
	for i, mode := range modes {
		refs[i] = runFingerprint(f, hello, mode, 1)
	}

	f.Fuzz(func(t *testing.T, raw uint16) {
		size := int(raw)%8192 + 1
		for i, mode := range modes {
			got := runFingerprint(t, hello, mode, size)
			if !reflect.DeepEqual(got, refs[i]) {
				t.Errorf("%v: batch size %d diverges from per-instruction reference", mode, size)
			}
		}
	})
}
