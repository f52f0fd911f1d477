package harness

import (
	"context"
	"fmt"
	"testing"

	"jrs/internal/core"
	"jrs/internal/workloads"
)

// BenchmarkEngine times the engines alone: the interpreter, the JIT
// and AOT on javac and jess at BenchN, with no sink attached but each
// engine's own clock Counter. Compiling the MiniJava source is outside
// the timer; loading, translating and running are inside. ns/inst is
// host time per simulated instruction. The warm/ cases run the
// process's shared linked program (RunCtx), linked before the timer
// starts, the way every grid cell runs: they time installing, not
// linking, and see what the program keeps across runs.
//
//	go test ./internal/harness -run '^$' -bench '^BenchmarkEngine$' -count 10
func BenchmarkEngine(b *testing.B) {
	for _, name := range []string{"javac", "jess"} {
		w, _ := workloads.ByName(name)
		for _, mode := range []Mode{ModeInterp, ModeJIT, ModeAOT} {
			b.Run(fmt.Sprintf("%s/%v", name, mode), func(b *testing.B) {
				b.ReportAllocs()
				var insts uint64
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					classes := w.Classes(w.BenchN)
					b.StartTimer()
					e, err := RunClassesCtx(context.Background(), w.Name, classes, mode, core.Config{})
					if err != nil {
						b.Fatal(err)
					}
					insts += e.TotalInstrs()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
			})
			b.Run(fmt.Sprintf("warm/%s/%v", name, mode), func(b *testing.B) {
				if _, err := RunCtx(context.Background(), w, w.BenchN, mode, core.Config{}); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				var insts uint64
				for i := 0; i < b.N; i++ {
					e, err := RunCtx(context.Background(), w, w.BenchN, mode, core.Config{})
					if err != nil {
						b.Fatal(err)
					}
					insts += e.TotalInstrs()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
			})
		}
	}
}
