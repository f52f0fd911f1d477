package harness

import "testing"

// TestAblateDevirtReductions: on every golden workload the
// whole-program pass strictly lowers dynamic indirect transfers vs the
// no-devirt baseline and never loses to local CHA.
func TestAblateDevirtReductions(t *testing.T) {
	res := runAs[*AblateDevirtResult](t, "ablate-devirt", helloOpts("hello", "db", "jess"))
	for _, row := range res.Rows {
		if row.IndirectNone == 0 {
			t.Errorf("%s: no indirect transfers at all — workload measures nothing", row.Workload)
		}
		if row.IndirectIPA >= row.IndirectNone {
			t.Errorf("%s: whole-program devirt did not reduce indirects: %d -> %d",
				row.Workload, row.IndirectNone, row.IndirectIPA)
		}
		if row.IndirectIPA > row.IndirectCHA {
			t.Errorf("%s: whole-program devirt lost to local CHA: %d > %d",
				row.Workload, row.IndirectIPA, row.IndirectCHA)
		}
		if row.DevirtSites == 0 {
			t.Errorf("%s: analysis proved no sites", row.Workload)
		}
	}
}

// TestAblateElideReductions: on every golden workload escape-based
// elision strictly lowers dynamic monitor traffic and reports the
// static rewrites it performed.
func TestAblateElideReductions(t *testing.T) {
	res := runAs[*AblateElideResult](t, "ablate-elide", helloOpts("hello", "db", "jess"))
	for _, row := range res.Rows {
		if row.LockOpsBase == 0 {
			t.Errorf("%s: no lock traffic at all — workload measures nothing", row.Workload)
		}
		if row.LockOpsElide >= row.LockOpsBase {
			t.Errorf("%s: elision did not reduce lock ops: %d -> %d",
				row.Workload, row.LockOpsBase, row.LockOpsElide)
		}
		if row.ElidedCallSites == 0 && row.ElidedMonitorOps == 0 {
			t.Errorf("%s: no static rewrites reported", row.Workload)
		}
	}
}
