package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// goldenOpts picks the workload set an experiment's golden covers. Most
// pins run at the hello quick scale; the two interprocedural ablations
// need several real workloads so the goldens demonstrate the reductions
// on more than a toy.
func goldenOpts(name string) Options {
	switch name {
	case "ablate-devirt", "ablate-elide":
		return helloOpts("hello", "db", "jess")
	case "ablate-checks", "ablate-codecache":
		return helloOpts("hello", "compress", "db", "jess")
	}
	return helloOpts()
}

// TestGoldenRenders pins the exact report text of every registered
// experiment, and per cell group its key, key hash, engine runs,
// simulated instructions and payload digest (testdata/golden/cells).
// Each plan runs the way bench's replay runs it: GroupPlans, Run,
// Deliver, Finish. Every group runs twice and must produce the same
// payload both times, which catches a sink built once at plan time
// instead of afresh per attempt. The shape tests in harness_test.go
// assert properties; these assert bytes, so a formatting, merge-order
// or extra-work regression anywhere in the grid is caught. Refresh with:
//
//	go test ./internal/harness -run TestGoldenRenders -update
func TestGoldenRenders(t *testing.T) {
	for _, e := range Experiments() {
		t.Run(e.Name, func(t *testing.T) {
			p := e.Plan(goldenOpts(e.Name))
			var pins strings.Builder
			for _, g := range GroupPlans(p) {
				runs, insts := engineRuns.Load(), simInstrs.Load()
				raw, err := g.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				runs, insts = engineRuns.Load()-runs, simInstrs.Load()-insts
				again, err := g.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				sum := payloadDigest(raw)
				if again := payloadDigest(again); again != sum {
					t.Errorf("%s: second run's payload %s differs from the first's %s", g.Key, again, sum)
				}
				if err := g.Deliver(raw); err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&pins, "%s hash=%s runs=%d insts=%d payload=%s\n",
					g.Key, g.Key.Hash()[:16], runs, insts, sum)
			}
			if err := p.Finish(); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, e.Name+".txt", p.Result().Render())
			checkGolden(t, "cells/"+e.Name+".txt", pins.String())
		})
	}
}

// payloadDigest is the first 16 hex digits of a payload's SHA-256.
func payloadDigest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])[:16]
}

// TestGridEngineRuns pins the engine work of the whole registry on
// hello (quick) run through one serial Runner, the way `jrs all` runs
// it: the grid's cell groups, the engine runs RunClassesCtx finished
// and the instructions they simulated. The per-experiment pins above
// count each group run on its own; this one counts what the Runner's
// scheduling adds or saves across experiments. Refresh with:
//
//	go test ./internal/harness -run TestGridEngineRuns -update
func TestGridEngineRuns(t *testing.T) {
	var plans []*Plan
	for _, e := range Experiments() {
		plans = append(plans, e.Plan(helloOpts()))
	}
	r := &Runner{Workers: 1}
	runs, insts := engineRuns.Load(), simInstrs.Load()
	if err := r.RunPlans(plans...); err != nil {
		t.Fatal(err)
	}
	runs, insts = engineRuns.Load()-runs, simInstrs.Load()-insts
	checkGolden(t, "cells/grid.txt", fmt.Sprintf("groups=%d\nruns=%d\ninsts=%d\n", r.Report().Cells, runs, insts))
}
