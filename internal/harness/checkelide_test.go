package harness

import (
	"context"
	"testing"

	"jrs/internal/workloads"
)

// TestCheckElideDifferential is the subsumption pin for sound check
// elision: every workload, under every mode, must produce byte-identical
// program output with elision on, and no elided check may ever fire.
func TestCheckElideDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep is slow")
	}
	for _, w := range workloads.All() {
		for _, mode := range []Mode{ModeInterp, ModeJIT, ModeAOT} {
			t.Run(w.Name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				ec, err := CheckElideWorkload(context.Background(), w, w.BenchN, mode)
				if err != nil {
					t.Fatal(err)
				}
				if err := ec.Err(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestCheckElideNonVacuous guards against the sweep passing trivially:
// at least one workload must actually elide checks at runtime, and the
// oracle must actually re-validate them.
func TestCheckElideNonVacuous(t *testing.T) {
	ec, err := CheckElideWorkload(context.Background(), workloads.Compress(), workloads.Compress().BenchN, ModeInterp)
	if err != nil {
		t.Fatal(err)
	}
	if ec.Elided == 0 {
		t.Fatal("compress/interp elided no checks — the analysis proved nothing")
	}
	if ec.Runtime == 0 {
		t.Fatal("oracle saw no validations — the hook is not wired")
	}
	if ec.Census.BoundsProven == 0 && ec.Census.NullProven == 0 {
		t.Fatalf("census shows no proven sites: %+v", ec.Census)
	}
}
