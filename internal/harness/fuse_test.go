package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"jrs/internal/cache"
	"jrs/internal/harness/chaos"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// cachesimPlans is the bench's cachesim grid (table2, table3, fig3,
// fig7) on the given options, one plan per experiment.
func cachesimPlans(o Options) []*Plan {
	var plans []*Plan
	for _, name := range []string{"table2", "table3", "fig3", "fig7"} {
		e, _ := Lookup(name)
		plans = append(plans, e.Plan(o))
	}
	return plans
}

// TestFusedPayloadsMatchSolo is the fusion differential: the payload
// of every spec cell group from one fused claim must equal, byte for
// byte, what CellGroup.Run makes of the group alone. The grid is the
// whole registry on hello plus the cachesim experiments on hello and db.
// Every claim must also gather every pending group of its spec.
func TestFusedPayloadsMatchSolo(t *testing.T) {
	var plans []*Plan
	for _, e := range Experiments() {
		plans = append(plans, e.Plan(helloOpts()))
	}
	plans = append(plans, cachesimPlans(helloOpts("hello", "db"))...)
	l := NewLedger(LedgerConfig{}, plans...)
	r := &Runner{}
	claimed := map[engineSpec]bool{}
	fused := 0
	for {
		batch, _ := l.Claim(time.Now(), 0)
		if len(batch) == 0 {
			break
		}
		spec := l.groups[batch[0].Group].spec
		if spec != (engineSpec{}) {
			if claimed[spec] {
				t.Errorf("spec %s@%d/%s claimed twice", spec.w.Name, spec.scale, spec.mode)
			}
			claimed[spec] = true
		}
		var raws []json.RawMessage
		if len(batch) > 1 {
			fused++
			var err error
			if raws, err = r.runFused(l, batch); err != nil {
				t.Fatal(err)
			}
		}
		for k, c := range batch {
			g := l.groups[c.Group]
			if g.spec != spec {
				t.Fatalf("%s fused into a claim of another spec", g.Key)
			}
			solo, err := g.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if raws != nil && !bytes.Equal(raws[k], solo) {
				t.Errorf("%s: fused payload %s differs from the solo payload %s",
					g.Key, payloadDigest(raws[k]), payloadDigest(solo))
			}
			if err := l.Commit(c.Group, solo); err != nil {
				t.Fatal(err)
			}
		}
	}
	if fused == 0 {
		t.Fatal("no claim fused two groups: the differential compared nothing")
	}
	if err := l.Finish(); err != nil {
		t.Fatal(err)
	}
}

// faultSink panics on the first batch it sees.
type faultSink struct{}

func (faultSink) Emit(trace.Inst)        { panic("sink fault") }
func (faultSink) EmitBatch([]trace.Inst) { panic("sink fault") }

// countResult is a synthetic spec-cell result: instructions counted per
// cell.
type countResult struct{ Rows []uint64 }

func (r *countResult) Render() string { return fmt.Sprint(r.Rows) }

// sameSpecPlans builds three one-cell plans of one engine spec (hello
// under the JIT): each counts instructions, and cell bad also attaches
// a panicking sink.
func sameSpecPlans(bad int) ([]*Plan, []*countResult) {
	var plans []*Plan
	var results []*countResult
	for i := 0; i < 3; i++ {
		res := &countResult{}
		p := newPlan(fmt.Sprintf("fuse-%d", i), res)
		specCells(p, helloOpts(), helloOpts().Workloads, jitOnly, "count", &res.Rows,
			func(w workloads.Workload, mode Mode) ([]trace.Sink, []*cache.Hierarchy, func() (uint64, error)) {
				c := &trace.Counter{}
				sinks := []trace.Sink{c}
				if i == bad {
					sinks = append(sinks, faultSink{})
				}
				return sinks, nil, func() (uint64, error) { return c.Total, nil }
			})
		plans = append(plans, p)
		results = append(results, res)
	}
	return plans, results
}

// TestFusedFaultIsolated: one of three same-spec cells panics in its
// sink under KeepGoing. Only that cell fails, with the CellFailure an
// unfused run of it reports (cause, attempts, error text), and the
// other two commit the values they have alone.
func TestFusedFaultIsolated(t *testing.T) {
	const bad = 1
	plans, results := sameSpecPlans(bad)
	fused := &Runner{Workers: 1, KeepGoing: true, Retries: 1}
	if err := fused.RunPlans(plans...); err != nil {
		t.Fatal(err)
	}
	rep := fused.Report()
	if rep.Completed != 2 || rep.Failed != 1 {
		t.Fatalf("fused run: %d completed, %d failed; want 2 and 1\n%s", rep.Completed, rep.Failed, rep.Render())
	}

	alone, aloneResults := sameSpecPlans(bad)
	for i, p := range alone {
		r := &Runner{Workers: 1, KeepGoing: true, Retries: 1}
		if err := r.RunPlans(p); err != nil {
			t.Fatal(err)
		}
		if i == bad {
			got, want := rep.Failures[0], r.Report().Failures[0]
			got.order, want.order = 0, 0 // enumeration index within each run
			if got != want {
				t.Errorf("fused failure %+v, unfused %+v", got, want)
			}
			continue
		}
		if results[i].Rows[0] == 0 || results[i].Rows[0] != aloneResults[i].Rows[0] {
			t.Errorf("cell %d: fused %d instructions, alone %d", i, results[i].Rows[0], aloneResults[i].Rows[0])
		}
	}
}

// TestFusedChaosMatchesUnfused runs the cachesim grid on hello under
// injected panics, hangs and transient errors, once as one grid (every
// spec's four cells fuse) and once experiment by experiment (nothing
// fuses). The renders and the run reports must be byte-identical, and
// the fused grid must make fewer engine runs. A second, degraded pass
// faults every interpreter cell for good under KeepGoing.
func TestFusedChaosMatchesUnfused(t *testing.T) {
	for _, tc := range []struct {
		name      string
		spec      chaos.Spec
		keepGoing bool
	}{
		{"retried", chaos.Spec{Seed: 1, PanicRate: 0.3, HangRate: 0.2, ErrRate: 0.3, UpTo: 1}, false},
		{"degraded", chaos.Spec{Seed: 1, PanicRate: 1, UpTo: 99, Cell: "/interp"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runner := func() *Runner {
				return &Runner{Workers: 1, Retries: 2, CellTimeout: 2 * time.Second,
					KeepGoing: tc.keepGoing, Chaos: chaos.New(tc.spec)}
			}
			render := func(r *Runner, plans []*Plan) string {
				out := ""
				for _, p := range plans {
					out += r.SafeRender(p.Result())
				}
				return out + r.Report().Render()
			}
			faults := 0
			for _, p := range cachesimPlans(helloOpts()) {
				for _, k := range p.Keys() {
					if chaos.New(tc.spec).Decide(k.String(), 1) != chaos.None {
						faults++
					}
				}
			}
			if faults == 0 {
				t.Fatalf("chaos spec %v injects nothing into the grid", tc.spec)
			}

			plans := cachesimPlans(helloOpts())
			fused := runner()
			runs := engineRuns.Load()
			if err := fused.RunPlans(plans...); err != nil {
				t.Fatal(err)
			}
			fusedRuns := engineRuns.Load() - runs
			got := render(fused, plans)

			plans = cachesimPlans(helloOpts())
			unfused := runner()
			runs = engineRuns.Load()
			for _, p := range plans {
				if err := unfused.RunPlans(p); err != nil {
					t.Fatal(err)
				}
			}
			unfusedRuns := engineRuns.Load() - runs
			if want := render(unfused, plans); got != want {
				t.Errorf("fused grid renders\n%s\nunfused\n%s", got, want)
			}
			if fusedRuns >= unfusedRuns {
				t.Errorf("fused grid made %d engine runs, unfused %d: nothing fused", fusedRuns, unfusedRuns)
			}
		})
	}
}
