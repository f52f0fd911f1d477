package harness

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"jrs/internal/core"
	"jrs/internal/pipeline"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// coreTraceLen caps each recorded trace: a whole BenchN interpreter
// trace of jess is 24M instructions, about 1 GB of trace.Inst.
const coreTraceLen = 1 << 19

// coreTrace is a recorded prefix of one engine run's trace.
type coreTrace struct {
	name  string
	insts []trace.Inst
}

// traceRecorder keeps the first coreTraceLen instructions it is sent.
type traceRecorder struct{ insts []trace.Inst }

func (r *traceRecorder) Emit(in trace.Inst) { r.EmitBatch([]trace.Inst{in}) }

func (r *traceRecorder) EmitBatch(batch []trace.Inst) {
	if room := coreTraceLen - len(r.insts); room > 0 {
		r.insts = append(r.insts, batch[:min(room, len(batch))]...)
	}
}

var coreTraces = sync.OnceValues(func() ([]coreTrace, error) {
	var out []coreTrace
	for _, name := range []string{"javac", "jess"} {
		for _, mode := range []Mode{ModeInterp, ModeJIT} {
			w, _ := workloads.ByName(name)
			var r traceRecorder
			if _, err := RunCtx(context.Background(), w, w.BenchN, mode, core.Config{}, &r); err != nil {
				return nil, err
			}
			out = append(out, coreTrace{fmt.Sprintf("%s/%v", name, mode), r.insts})
		}
	}
	return out, nil
})

// emitBatches feeds a recorded trace to a sink in engine-sized batches.
func emitBatches(s trace.Sink, insts []trace.Inst) {
	for len(insts) > 0 {
		n := min(trace.DefaultBatchSize, len(insts))
		s.EmitBatch(insts[:n])
		insts = insts[n:]
	}
}

// BenchmarkCoreEmitBatch times the out-of-order core alone, off traces
// recorded once from javac and jess at BenchN under the interpreter and
// the JIT: a standalone core (pipeline.New) per issue width, fig9's
// four widths as one pipeline.Group, and ablate-ooo's 18 configs (16
// distinct cores) as one group. ns/inst is host time per trace
// instruction, so a group's figure covers all of its cores.
//
//	go test ./internal/harness -run '^$' -bench CoreEmitBatch -count 10
func BenchmarkCoreEmitBatch(b *testing.B) {
	traces, err := coreTraces()
	if err != nil {
		b.Fatal(err)
	}
	widths := []int{1, 2, 4, 8}
	bench := func(name string, insts []trace.Inst, sink func() trace.Sink) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				emitBatches(sink(), insts)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(insts)), "ns/inst")
		})
	}
	for _, tr := range traces {
		for _, width := range widths {
			bench(fmt.Sprintf("%s/w=%d", tr.name, width), tr.insts, func() trace.Sink {
				return pipeline.New(pipeline.DefaultConfig(width))
			})
		}
		bench(tr.name+"/group", tr.insts, func() trace.Sink {
			return pipeline.NewGroup(fig9Configs(widths)...)
		})
		bench(tr.name+"/ablate-ooo", tr.insts, func() trace.Sink {
			return pipeline.NewGroup(ablateOoOConfigs()...)
		})
	}
}
