package harness

import (
	"context"
	"fmt"
	"testing"

	"jrs/internal/core"
	"jrs/internal/pipeline"
	"jrs/internal/workloads"
)

// legacyRef is the retired window model's result on one cell: the
// instruction count it timed and its final completion cycle.
type legacyRef struct {
	workload       string
	mode           Mode
	instrs, cycles uint64
}

// legacyWidth4 freezes the pre-Tomasulo window model (pipeline.Legacy,
// DefaultConfig(4), every workload at BenchN under every mode). The
// model itself is gone; to regenerate the table, check out commit
// 0df0c36, the last with internal/pipeline/legacy.go, and rerun the
// measurement there.
var legacyWidth4 = []legacyRef{
	{"compress", ModeInterp, 82667625, 66269757},
	{"compress", ModeJIT, 6916390, 2426759},
	{"compress", ModeAOT, 6650807, 2176354},
	{"jess", ModeInterp, 23750576, 18866300},
	{"jess", ModeJIT, 1957962, 746809},
	{"jess", ModeAOT, 1691695, 505585},
	{"db", ModeInterp, 19821173, 15264750},
	{"db", ModeJIT, 2013136, 830496},
	{"db", ModeAOT, 1700011, 558304},
	{"javac", ModeInterp, 9527419, 7550548},
	{"javac", ModeJIT, 1184330, 653870},
	{"javac", ModeAOT, 824062, 335961},
	{"mpeg", ModeInterp, 108891755, 87054789},
	{"mpeg", ModeJIT, 8819816, 2443375},
	{"mpeg", ModeAOT, 8583133, 2228025},
	{"mtrt", ModeInterp, 11518293, 8653435},
	{"mtrt", ModeJIT, 1101044, 562788},
	{"mtrt", ModeAOT, 823883, 308263},
	{"jack", ModeInterp, 67453045, 52993541},
	{"jack", ModeJIT, 5746126, 1994558},
	{"jack", ModeAOT, 5500878, 1740974},
	{"hello", ModeInterp, 86826, 75047},
	{"hello", ModeJIT, 126861, 113730},
	{"hello", ModeAOT, 6970, 5899},
}

// TestOoOCoreDifferentialEnvelope pins the Tomasulo core against the
// frozen legacy window model on every workload under every execution
// mode: the two are timing models of the same width-4 machine, so their
// IPCs must stay within a fixed envelope — a silent fidelity regression
// in the scheduler moves the ratio out of band long before it would
// visibly bend a figure. The core must time exactly the instruction
// count the legacy model saw, so a changed trace fails loudly instead of
// comparing different streams. The invariant checker rides along, and
// the architectural bound IPC <= width is asserted.
func TestOoOCoreDifferentialEnvelope(t *testing.T) {
	// Envelope observed across the suite: the OoO core commits (an
	// instruction costs commit bandwidth after completion, and squash
	// recovery discards fetched cycles) so it trails the legacy
	// model's optimistic completion-only accounting slightly, and the
	// bounds are asymmetric around 1.0.
	const loRatio, hiRatio = 0.60, 1.40
	const width = 4

	for _, ref := range legacyWidth4 {
		t.Run(fmt.Sprintf("%s/%v", ref.workload, ref.mode), func(t *testing.T) {
			w := mustWorkload(t, ref.workload)
			ooo := pipeline.New(pipeline.DefaultConfig(width))
			chk := ooo.Check()
			if _, err := RunCtx(context.Background(), w, w.BenchN, ref.mode, core.Config{}, ooo); err != nil {
				t.Fatal(err)
			}
			if err := chk.Err(); err != nil {
				t.Errorf("invariant checker: %v", err)
			}
			if chk.Count() != ooo.Instrs {
				t.Errorf("checker saw %d instructions, core committed %d", chk.Count(), ooo.Instrs)
			}
			if ooo.Instrs != ref.instrs {
				t.Fatalf("core timed %d instructions, the frozen legacy reference %d: the trace changed", ooo.Instrs, ref.instrs)
			}
			if ipc := ooo.IPC(); ipc > float64(width)+0.01 {
				t.Errorf("OoO IPC %.3f exceeds issue width %d", ipc, width)
			}
			legacy := float64(ref.instrs) / float64(ref.cycles)
			ratio := ooo.IPC() / legacy
			if ratio < loRatio || ratio > hiRatio {
				t.Errorf("OoO IPC %.3f vs legacy %.3f: ratio %.3f outside [%.2f, %.2f]",
					ooo.IPC(), legacy, ratio, loRatio, hiRatio)
			}
		})
	}
}

// TestAblateOoOShapes runs the ablate-ooo experiment (checker attached)
// at quick scale and validates the structural contract end-to-end: the
// sweep exists for every workload, every row is monotone, and capacity
// starvation is visible — an 8-entry ROB must cost IPC against the
// 256-entry machine somewhere in the suite.
func TestAblateOoOShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite simulation")
	}
	res := runAs[*AblateOoOResult](t, "ablate-ooo", Options{Quick: true, CheckPipe: true,
		Workloads: []workloads.Workload{mustWorkload(t, "compress"), mustWorkload(t, "db")}})
	if err := res.MonotoneSweep(); err != nil {
		t.Error(err)
	}
	starved := false
	for _, cell := range res.Cells {
		for _, row := range cell.Rows {
			if row.Axis == "ROB" && row.IPC[len(row.IPC)-1] > row.IPC[0]*1.05 {
				starved = true
			}
		}
	}
	if !starved {
		t.Error("no workload shows ROB-capacity sensitivity; the sweep is not exercising the resource")
	}
}

func mustWorkload(t *testing.T, name string) workloads.Workload {
	t.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("workload %q missing", name)
	}
	return w
}
