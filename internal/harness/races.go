package harness

import (
	"context"
	"fmt"
	"strings"

	"jrs/internal/analysis/conc"
	"jrs/internal/core"
	"jrs/internal/workloads"
)

// RaceCheck is the outcome of one dynamic-vs-static race differential:
// a workload executed with the vector-clock oracle attached (under a
// seeded schedule), compared against the static conc report over the
// same classes. The soundness invariant is Missing == nil — the static
// analysis over-approximates, so every dynamically observed race
// location must appear in its report.
type RaceCheck struct {
	Workload string         `json:"workload"`
	Mode     string         `json:"mode"`
	Seed     uint64         `json:"seed"`
	Static   *conc.Report   `json:"static"`
	Dynamic  []conc.DynRace `json:"dynamic,omitempty"`
	// Missing lists dynamic races the static report does not subsume
	// (a soundness bug when non-empty).
	Missing []conc.DynRace `json:"missing,omitempty"`
	// Deadlocked reports that the run ended with no runnable threads;
	// the static report must then contain a deadlock cycle.
	Deadlocked bool `json:"deadlocked,omitempty"`
}

// Err folds the invariant into an error (nil when the check holds).
func (rc *RaceCheck) Err() error {
	if len(rc.Missing) > 0 {
		var parts []string
		for _, d := range rc.Missing {
			parts = append(parts, d.Location())
		}
		return fmt.Errorf("%s/%s seed %d: dynamic race(s) not subsumed by static report: %s",
			rc.Workload, rc.Mode, rc.Seed, strings.Join(parts, ", "))
	}
	if rc.Deadlocked && len(rc.Static.Deadlocks) == 0 {
		return fmt.Errorf("%s/%s seed %d: run deadlocked but static report has no deadlock cycle",
			rc.Workload, rc.Mode, rc.Seed)
	}
	return nil
}

// CheckRacesWorkload runs w once under mode with the dynamic race
// oracle attached and the scheduler seeded (seed 0 = the fixed
// quantum), then checks the dynamic findings against the static report.
// A run that genuinely deadlocks is not an error by itself — seeded
// schedules can drive a seeded-deadlock fixture into the real thing —
// but it must be predicted by the static lock-order analysis.
func CheckRacesWorkload(ctx context.Context, w workloads.Workload, scale int, mode Mode, seed uint64) (*RaceCheck, error) {
	p, err := linkedProgram(w, scale)
	if err != nil {
		return nil, fmt.Errorf("%s: static analysis: %w", w.Name, err)
	}
	static := p.Races()
	oracle := conc.NewOracle()
	cfg := core.Config{RaceHook: oracle, SchedSeed: seed}
	_, runErr := RunCtx(ctx, w, scale, mode, cfg)
	rc := &RaceCheck{
		Workload: w.Name,
		Mode:     mode.String(),
		Seed:     seed,
		Static:   static,
		Dynamic:  oracle.Races(),
	}
	if runErr != nil {
		if strings.Contains(runErr.Error(), "deadlock: no runnable threads") {
			rc.Deadlocked = true
		} else {
			return nil, runErr
		}
	}
	rc.Missing = conc.Subsumes(static, oracle.Races())
	return rc, nil
}
