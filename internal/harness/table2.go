package harness

import (
	"jrs/internal/branch"
	"jrs/internal/stats"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// Table2Row is one (workload, mode) branch study: misprediction rate per
// predictor, in the paper's order (2bit, BHT, gshare, GAp).
type Table2Row struct {
	Workload string
	Mode     Mode
	// Rates are mispredictions per control transfer per predictor.
	Rates [4]float64
	// IndirectFracOfTransfers is the share of control transfers that are
	// indirect (the interpreter's burden).
	IndirectFracOfTransfers float64
	Names                   [4]string
}

// Table2Result reproduces Table 2 (branch misprediction).
type Table2Result struct {
	Rows []Table2Row
}

// table2Plan enumerates the branch-prediction grid: one cell per
// (workload, mode) running the four-predictor suite.
func table2Plan(o Options) *Plan {
	res := &Table2Result{}
	p := newPlan("table2", res)
	cells(p, o, o.seven(), interpJIT, "", "2bit+bht+gshare+gap", &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (Table2Row, error)) {
			suite := branch.NewSuite()
			return []run{{mode: mode, sinks: []trace.Sink{suite}}}, func() (Table2Row, error) {
				row := Table2Row{Workload: w.Name, Mode: mode}
				var transfers, indirect uint64
				for i, u := range suite.Units {
					row.Rates[i] = u.Stats.MispredictRate()
					row.Names[i] = u.Dir.Name()
					transfers = u.Stats.Transfers()
					indirect = u.Stats.Indirects
				}
				if transfers > 0 {
					row.IndirectFracOfTransfers = float64(indirect) / float64(transfers)
				}
				return row, nil
			}
		})
	return p
}

// Render formats Table 2.
func (r *Table2Result) Render() string {
	t := stats.NewTable("Table 2: branch misprediction rate by predictor (2K L1, 256 L2, 1K BTB, 5-bit gshare history)",
		"workload", "mode", "2bit", "BHT", "gshare", "GAp", "indirect-share")
	for _, row := range r.Rows {
		t.AddRow(row.Workload, row.Mode.String(),
			stats.Pct(row.Rates[0]), stats.Pct(row.Rates[1]),
			stats.Pct(row.Rates[2]), stats.Pct(row.Rates[3]),
			stats.Pct(row.IndirectFracOfTransfers))
	}
	t.Note("paper: interpreter mispredicts far more (gshare accuracy 65-87%% interp vs 80-92%% JIT) because of dispatch/virtual-call indirect jumps")
	return t.String()
}

// GshareAccuracy returns min/max gshare accuracy per mode, the headline
// numbers of §4.2.
func (r *Table2Result) GshareAccuracy(mode Mode) (min, max float64) {
	min, max = 1, 0
	for _, row := range r.Rows {
		if row.Mode != mode {
			continue
		}
		acc := 1 - row.Rates[2]
		if acc < min {
			min = acc
		}
		if acc > max {
			max = acc
		}
	}
	return min, max
}
