package workloads_test

import (
	"testing"

	"jrs/internal/core"
	"jrs/internal/workloads"
)

// golden pins each workload's exact output at bench scale. Any change —
// to the workload sources, the compiler, the engines or the scheduler —
// that alters program-visible behaviour must update these deliberately.
var golden = map[string]string{
	"compress": "== compress n=3000 ==\ncodes=2121 check=344915969\n",
	"jess":     "== jess n=30 ==\nfacts=317 fires=288 rounds=2\n",
	"db":       "== db n=25 ==\nfound=         8\nprobes=       131\nbuckets=        10\ncheck=    522203\n",
	"javac":    "== javac n=30 ==\ntoks=864 code=374 folded=29 hotvar=1 check=-223285811\n",
	"mpeg":     "== mpeg n=25 ==\nenergy=1161350\n",
	"mtrt":     "== mtrt n=16 ==\nrows=16 sum=21607 check=634363787\n",
	"jack":     "== jack n=3 ==\nidents=2241 nums=480 punct=960 check=191612502\n",
	"hello":    "== hello n=1 ==\nHello, world\n",
}

func TestGoldenOutputs(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			want, ok := golden[w.Name]
			if !ok {
				t.Fatalf("no golden output recorded for %s", w.Name)
			}
			for _, p := range []core.Policy{core.InterpretOnly{}, core.CompileFirst{}} {
				e := core.New(core.Config{Policy: p})
				if err := e.VM.Load(w.Classes(w.BenchN)); err != nil {
					t.Fatal(err)
				}
				m, err := e.VM.LookupMain()
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Run(m); err != nil {
					t.Fatal(err)
				}
				if got := e.VM.Out.String(); got != want {
					t.Errorf("%s: output changed:\n got: %q\nwant: %q", p.Name(), got, want)
				}
			}
		})
	}
}
