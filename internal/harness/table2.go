package harness

import (
	"context"
	"jrs/internal/branch"
	"jrs/internal/core"
	"jrs/internal/stats"
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
func table2Plan(o Options) (*Plan, *Table2Result) {
	list := o.seven()
	res := &Table2Result{Rows: make([]Table2Row, 0, len(list)*2)}
	p := newPlan("table2", res)
	for _, w := range list {
		for _, mode := range []Mode{ModeInterp, ModeJIT} {
			w, mode := w, mode
			scale := resolveScale(o, w)
			res.Rows = append(res.Rows, Table2Row{})
			key := CellKey{Experiment: "table2", Workload: w.Name, Scale: scale, Mode: mode.String(),
				Config: "2bit+bht+gshare+gap"}
			p.add(key, &res.Rows[len(res.Rows)-1], func(ctx context.Context) (any, error) {
				suite := branch.NewSuite()
				if _, err := RunCtx(ctx, w, scale, mode, core.Config{}, suite); err != nil {
					return nil, err
				}
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
			})
		}
	}
	return p, res
}

// Table2 runs the four predictors over each workload in both modes.
func Table2(o Options) (*Table2Result, error) {
	return runSerial(table2Plan(o))
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
