package harness

import (
	"context"
	"fmt"

	"jrs/internal/core"
	"jrs/internal/pipeline"
	"jrs/internal/stats"
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

// ablateOoOPlan enumerates the out-of-order resource sweep: one cell
// per workload, all 18 configurations attached to one width-4 JIT run.
func ablateOoOPlan(o Options) (*Plan, *AblateOoOResult) {
	const width = 4
	list := o.seven()
	res := &AblateOoOResult{Cells: make([]OoOCell, len(list))}
	p := newPlan("ablate-ooo", res)
	for i, w := range list {
		i, w := i, w
		scale := resolveScale(o, w)
		key := CellKey{Experiment: "ablate-ooo", Workload: w.Name, Scale: scale, Mode: ModeJIT.String(),
			Config: "rob8-256.rs2-64.lsq4-128.width=4"}
		p.add(key, &res.Cells[i], func(ctx context.Context) (any, error) {
			var cfgs []pipeline.Config
			for _, ax := range oooAxes {
				for _, v := range ax.Sizes {
					cfg := pipeline.DefaultConfig(width)
					ax.apply(&cfg, v)
					cfgs = append(cfgs, cfg)
				}
			}
			cores, err := runCores(ctx, o, w, scale, ModeJIT, cfgs)
			if err != nil {
				return nil, err
			}
			cell := OoOCell{}
			for _, ax := range oooAxes {
				row := OoOSweepRow{Workload: w.Name, Axis: ax.Name, Sizes: ax.Sizes}
				for _, c := range cores[:len(ax.Sizes)] {
					row.IPC = append(row.IPC, c.IPC())
				}
				cores = cores[len(ax.Sizes):]
				cell.Rows = append(cell.Rows, row)
			}
			return cell, nil
		})
	}
	return p, res
}

// AblateOoO sweeps ROB size, reservation-station count and LSQ depth
// around the Figure 9 core on every workload's JIT-mode trace.
func AblateOoO(o Options) (*AblateOoOResult, error) {
	return runSerial(ablateOoOPlan(o))
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

// runCores times one engine run on a pipeline.Group of one core per
// config, each with an invariant checker when o.CheckPipe is set.
func runCores(ctx context.Context, o Options, w workloads.Workload, scale int, mode Mode, cfgs []pipeline.Config) ([]*pipeline.Core, error) {
	g := pipeline.NewGroup(cfgs...)
	var checks []*pipeline.Checker
	if o.CheckPipe {
		for _, c := range g.Cores() {
			checks = append(checks, c.Check())
		}
	}
	if _, err := RunCtx(ctx, w, scale, mode, core.Config{}, g); err != nil {
		return nil, err
	}
	if err := checkerErrs(checks); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return g.Cores(), nil
}

// checkerErrs folds the violations of every attached pipeline checker
// into one cell error (nil when all clean or none attached).
func checkerErrs(checks []*pipeline.Checker) error {
	for _, chk := range checks {
		if err := chk.Err(); err != nil {
			return err
		}
	}
	return nil
}
