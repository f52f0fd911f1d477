package harness

import (
	"fmt"

	"jrs/internal/pipeline"
	"jrs/internal/stats"
	"jrs/internal/trace"
	"jrs/internal/workloads"
)

// oooAxes defines the structural sweep of the speculative core: each
// axis scales one resource through ÷8..×4 of the Figure 9 default
// (64-entry ROB, 16 stations per class, 32-entry LSQ) while the other
// two stay at their defaults. The multipliers are shared across axes so
// the rendered rows line up column-for-column.
var oooAxes = []struct {
	Name  string
	Sizes []int
	apply func(*pipeline.Config, int)
}{
	{"ROB", []int{8, 16, 32, 64, 128, 256}, func(c *pipeline.Config, v int) { c.ROBSize = v }},
	{"RS", []int{2, 4, 8, 16, 32, 64}, func(c *pipeline.Config, v int) { c.RSPerClass = v }},
	{"LSQ", []int{4, 8, 16, 32, 64, 128}, func(c *pipeline.Config, v int) { c.LSQSize = v }},
}

// OoOSweepRow is one workload × resource-axis IPC sweep.
type OoOSweepRow struct {
	Workload string
	Axis     string
	Sizes    []int
	IPC      []float64
}

// OoOCell is one workload's full sweep (all axes share a single run:
// every configuration attaches to the same JIT-mode trace).
type OoOCell struct {
	Rows []OoOSweepRow
}

// AblateOoOResult is the ablate-ooo study: how much reorder buffer,
// reservation-station and load/store-queue capacity the runtime's code
// actually exploits — the scenario axes the Tomasulo core opened up.
type AblateOoOResult struct {
	Cells []OoOCell
}

// ablateOoOConfigs is the sweep's 18 width-4 cores, axis by axis. Each
// axis passes through the default, so the group times 16 cores.
func ablateOoOConfigs() []pipeline.Config {
	var cfgs []pipeline.Config
	for _, ax := range oooAxes {
		for _, v := range ax.Sizes {
			cfg := pipeline.DefaultConfig(4)
			ax.apply(&cfg, v)
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// ablateOoOPlan enumerates the out-of-order resource sweep: one cell
// per workload, all 18 configurations attached to one width-4 JIT run.
func ablateOoOPlan(o Options) *Plan {
	cfgs := ablateOoOConfigs()
	res := &AblateOoOResult{}
	p := newPlan("ablate-ooo", res)
	cells(p, o, o.seven(), jitOnly, "", pipeConfig(o, "rob8-256.rs2-64.lsq4-128.width=4"), &res.Cells,
		func(w workloads.Workload, mode Mode) ([]run, func() (OoOCell, error)) {
			g, check := coreGroup(o, cfgs)
			return []run{{mode: mode, sinks: []trace.Sink{g}}}, func() (OoOCell, error) {
				cores := g.Cores()
				cell := OoOCell{}
				for _, ax := range oooAxes {
					row := OoOSweepRow{Workload: w.Name, Axis: ax.Name, Sizes: ax.Sizes}
					for _, c := range cores[:len(ax.Sizes)] {
						row.IPC = append(row.IPC, c.IPC())
					}
					cores = cores[len(ax.Sizes):]
					cell.Rows = append(cell.Rows, row)
				}
				return cell, check()
			}
		})
	return p
}

// Render formats the sweep: one row per workload × axis, columns at
// shared multipliers of the default capacity.
func (r *AblateOoOResult) Render() string {
	t := stats.NewTable("Extension: OoO resource sweep — IPC vs ROB/RS/LSQ capacity (width-4 JIT, other axes at default)",
		"workload", "axis", "÷8", "÷4", "÷2", "default", "×2", "×4", "gain ÷8→×4")
	for _, cell := range r.Cells {
		for _, row := range cell.Rows {
			cells := []string{row.Workload, row.Axis}
			for _, ipc := range row.IPC {
				cells = append(cells, stats.F2(ipc))
			}
			cells = append(cells, stats.F2(row.IPC[len(row.IPC)-1]/row.IPC[0]))
			t.AddRow(cells...)
		}
	}
	t.Note("scheduling is monotone by construction, so each row is non-decreasing; where it flattens before ×1 the runtime's own ILP — not the machine — is the limit")
	return t.String()
}

// MonotoneSweep verifies every rendered row is non-decreasing in IPC —
// the structural-monotonicity contract surfaced at experiment level.
func (r *AblateOoOResult) MonotoneSweep() error {
	for _, cell := range r.Cells {
		for _, row := range cell.Rows {
			for i := 1; i < len(row.IPC); i++ {
				if row.IPC[i] < row.IPC[i-1]*0.999 {
					return fmt.Errorf("%s/%s: IPC fell %.4f -> %.4f at %s=%d",
						row.Workload, row.Axis, row.IPC[i-1], row.IPC[i], row.Axis, row.Sizes[i])
				}
			}
		}
	}
	return nil
}
