package pipeline

import (
	"fmt"
	"strings"
	"testing"
)

// oddSizeConfigs is a matrix of cores whose ROB and LSQ sizes are not
// powers of two: ROB 1/5/96 × LSQ 1/3/24 × memory speculation on and
// off, with 3 stations per class, at widths 2 and 8.
func oddSizeConfigs() []Config {
	var cfgs []Config
	for _, width := range []int{2, 8} {
		for _, rob := range []int{1, 5, 96} {
			for _, lsq := range []int{1, 3, 24} {
				for _, spec := range []bool{true, false} {
					cfg := DefaultConfig(width)
					cfg.ROBSize, cfg.RSPerClass, cfg.LSQSize, cfg.MemSpeculate = rob, 3, lsq, spec
					cfgs = append(cfgs, cfg)
				}
			}
		}
	}
	return cfgs
}

// oddSizeWant is the frozen table of TestOddSizeCounters: each odd-size
// core's six exact counters on mixedTrace(40000, 17).
const oddSizeWant = `
w=2 rob=1 lsq=1 spec=true: [40000 231022 3030 211676 0 0]
w=2 rob=1 lsq=1 spec=false: [40000 231022 3030 211676 0 0]
w=2 rob=1 lsq=3 spec=true: [40000 231022 3030 211676 0 0]
w=2 rob=1 lsq=3 spec=false: [40000 231022 3030 211676 0 0]
w=2 rob=1 lsq=24 spec=true: [40000 231022 3030 211676 0 0]
w=2 rob=1 lsq=24 spec=false: [40000 231022 3030 211676 0 0]
w=2 rob=5 lsq=1 spec=true: [40000 136993 3030 117780 0 0]
w=2 rob=5 lsq=1 spec=false: [40000 136993 3030 117780 0 0]
w=2 rob=5 lsq=3 spec=true: [40000 103389 3030 84248 0 0]
w=2 rob=5 lsq=3 spec=false: [40000 103389 3030 84248 0 0]
w=2 rob=5 lsq=24 spec=true: [40000 102716 3030 83575 0 0]
w=2 rob=5 lsq=24 spec=false: [40000 102716 3030 83575 0 0]
w=2 rob=96 lsq=1 spec=true: [40000 127361 3030 108167 0 0]
w=2 rob=96 lsq=1 spec=false: [40000 127361 3030 108167 0 0]
w=2 rob=96 lsq=3 spec=true: [40000 66881 3030 47771 0 0]
w=2 rob=96 lsq=3 spec=false: [40000 66881 3030 47771 0 0]
w=2 rob=96 lsq=24 spec=true: [40000 48119 3030 29044 0 0]
w=2 rob=96 lsq=24 spec=false: [40000 48119 3030 29044 0 0]
w=8 rob=1 lsq=1 spec=true: [40000 231012 3030 225939 0 0]
w=8 rob=1 lsq=1 spec=false: [40000 231012 3030 225939 0 0]
w=8 rob=1 lsq=3 spec=true: [40000 231012 3030 225939 0 0]
w=8 rob=1 lsq=3 spec=false: [40000 231012 3030 225939 0 0]
w=8 rob=1 lsq=24 spec=true: [40000 231012 3030 225939 0 0]
w=8 rob=1 lsq=24 spec=false: [40000 231012 3030 225939 0 0]
w=8 rob=5 lsq=1 spec=true: [40000 134506 3030 129567 0 0]
w=8 rob=5 lsq=1 spec=false: [40000 134506 3030 129567 0 0]
w=8 rob=5 lsq=3 spec=true: [40000 100871 3030 96006 0 0]
w=8 rob=5 lsq=3 spec=false: [40000 100871 3030 96006 0 0]
w=8 rob=5 lsq=24 spec=true: [40000 100211 3030 95346 0 0]
w=8 rob=5 lsq=24 spec=false: [40000 100211 3030 95346 0 0]
w=8 rob=96 lsq=1 spec=true: [40000 123301 3030 118382 0 0]
w=8 rob=96 lsq=1 spec=false: [40000 123301 3030 118382 0 0]
w=8 rob=96 lsq=3 spec=true: [40000 60936 3030 56103 0 0]
w=8 rob=96 lsq=3 spec=false: [40000 60936 3030 56103 0 0]
w=8 rob=96 lsq=24 spec=true: [40000 39087 3030 34300 0 0]
w=8 rob=96 lsq=24 spec=false: [40000 39087 3030 34300 0 0]
`

// TestOddSizeCounters pins the six exact counters of cores whose ROB
// and LSQ sizes are not powers of two, fed in odd-sized batches with
// the checker attached. Every other pinned config is a power of two in
// both, so this table is what catches an occupancy rule that only
// holds at those sizes. mixedTrace spreads its stores over 16K words
// and never forwards; TestOddSizeCoreCountersGolden in the harness
// pins the same configs on jess, where forwarding binds.
func TestOddSizeCounters(t *testing.T) {
	tr := mixedTrace(40000, 17)
	var b strings.Builder
	b.WriteString("\n")
	for _, cfg := range oddSizeConfigs() {
		c := New(cfg)
		chk := c.Check()
		for rest := tr; len(rest) > 0; {
			n := min(777, len(rest))
			c.EmitBatch(rest[:n])
			rest = rest[n:]
		}
		if err := chk.Err(); err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		fmt.Fprintf(&b, "w=%d rob=%d lsq=%d spec=%t: %v\n",
			cfg.IssueWidth, cfg.ROBSize, cfg.LSQSize, cfg.MemSpeculate, counters(c))
	}
	if got := b.String(); got != oddSizeWant {
		t.Errorf("odd-size counters changed:\n--- got ---%s--- want ---%s", got, oddSizeWant)
	}
}
