package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"jrs/internal/bytecode"
	"jrs/internal/core"
	"jrs/internal/jit/codecache"
	"jrs/internal/vm"
	"jrs/internal/workloads"
)

// linkLayout renders everything linking decides about a class list:
// per class its ID, static and pool bases, vtable (by method ID) and
// every pool reference's resolved target; per method its ID, address,
// PC offsets, code size and vtable slot.
func linkLayout(classes []*bytecode.Class) string {
	var b strings.Builder
	for _, c := range classes {
		fmt.Fprintf(&b, "class %s id=%d static=%#x pool=%#x vtable=[", c.Name, c.ID, c.StaticBase, c.PoolBase)
		for _, m := range c.VTable {
			fmt.Fprintf(&b, " %d", m.ID)
		}
		b.WriteString(" ]\n")
		for _, r := range c.Pool.Classes {
			fmt.Fprintf(&b, "  class-ref %s -> %d\n", r.Name, r.Resolved.ID)
		}
		for _, r := range c.Pool.Fields {
			fmt.Fprintf(&b, "  field-ref %s.%s -> %s.%s slot=%d static=%t\n",
				r.Class, r.Name, r.Owner.Name, r.Resolved.Name, r.Resolved.Slot, r.Static)
		}
		for _, r := range c.Pool.Methods {
			fmt.Fprintf(&b, "  method-ref %s.%s%s -> %d\n", r.Class, r.Name, r.Sig, r.Resolved.ID)
		}
		for _, m := range c.Methods {
			fmt.Fprintf(&b, "  method %s id=%d addr=%#x bytes=%d vindex=%d pcs=%v\n",
				m.FullName(), m.ID, m.Addr, m.CodeBytes, m.VIndex, m.PCOffsets)
		}
	}
	return b.String()
}

// TestSharedProgramMatchesFresh: at the bench scale, a JIT run on the
// process's linked program of every workload asks the code cache for
// exactly the keys a fresh-compile run asks for; after that run, the
// shared program at two scales holds the code and lays out and
// resolves exactly what a fresh compile loaded into a fresh VM does.
func TestSharedProgramMatchesFresh(t *testing.T) {
	for _, w := range workloads.All() {
		shared, cold := codecache.NewMemory(), codecache.NewMemory()
		if _, err := RunCtx(context.Background(), w, w.BenchN, ModeJIT, core.Config{CodeCache: shared}); err != nil {
			t.Fatal(err)
		}
		if _, err := RunClassesCtx(context.Background(), w.Name, w.Classes(w.BenchN), ModeJIT, core.Config{CodeCache: cold}); err != nil {
			t.Fatal(err)
		}
		if got, want := shared.Keys(), cold.Keys(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a JIT run on the shared program used %d code-cache keys, a fresh compile %d (or different ones)", w.Name, len(got), len(want))
		}
		for _, n := range []int{w.BenchN, w.DefaultN} {
			p, err := linkedProgram(w, n)
			if err != nil {
				t.Fatalf("%s@%d: %v", w.Name, n, err)
			}
			v := vm.New(nil, nil)
			if err := v.Load(w.Classes(n)); err != nil {
				t.Fatalf("%s@%d fresh: %v", w.Name, n, err)
			}
			if got, want := linkLayout(p.Classes)+codeOf(p.Classes), linkLayout(v.ClassList)+codeOf(v.ClassList); got != want {
				t.Fatalf("%s@%d: shared program's link differs from a fresh load:\n%s", w.Name, n, firstDiff(got, want))
			}
			if len(p.Methods) != len(v.MethodByID) {
				t.Fatalf("%s@%d: %d methods shared, %d loaded", w.Name, n, len(p.Methods), len(v.MethodByID))
			}
			for id, m := range p.Methods {
				if m.ID != id {
					t.Fatalf("%s@%d: method %s at index %d has id %d", w.Name, n, m.FullName(), id, m.ID)
				}
			}
		}
	}
}

// firstDiff returns the first differing line of two renders.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: shared %q\n        fresh  %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("shared has %d lines, fresh %d", len(g), len(w))
}

// sharedRunCase is one engine configuration the concurrency test runs.
type sharedRunCase struct {
	name string
	mode Mode
	cfg  func() core.Config
}

func sharedRunCases() []sharedRunCase {
	cfg := func(c core.Config) func() core.Config { return func() core.Config { return c } }
	return []sharedRunCase{
		{"interp", ModeInterp, cfg(core.Config{})},
		{"jit", ModeJIT, cfg(core.Config{})},
		{"aot", ModeAOT, cfg(core.Config{})},
		{"tiered", ModeJIT, cfg(core.Config{Policy: core.Tiered{N1: 2, N2: 20}})},
		{"devirt", ModeJIT, cfg(core.Config{Devirt: true})},
		{"checks", ModeJIT, cfg(core.Config{ElideBounds: true, ElideNull: true})},
		{"checks-interp", ModeInterp, cfg(core.Config{ElideBounds: true, ElideNull: true})},
		{"elide-locks", ModeJIT, cfg(core.Config{ElideLocks: true, Devirt: true})},
	}
}

// TestSharedProgramConcurrentEngines runs every engine configuration of
// sharedRunCases at once on separate goroutines, all but the
// lock-eliding one on the one shared program of each workload (lock
// elision links a private copy), and requires each to print and
// simulate exactly what the same configuration does on a fresh compile.
// Run under -race, it shows that nothing writes into a shared program.
func TestSharedProgramConcurrentEngines(t *testing.T) {
	type result struct {
		out    string
		instrs uint64
	}
	for _, name := range []string{"mtrt", "db"} {
		w, _ := workloads.ByName(name)
		cases := sharedRunCases()
		want := make([]result, len(cases))
		for i, c := range cases {
			e, err := RunClassesCtx(context.Background(), w.Name, w.Classes(w.BenchN), c.mode, c.cfg())
			if err != nil {
				t.Fatalf("%s/%s fresh: %v", w.Name, c.name, err)
			}
			want[i] = result{e.VM.Out.String(), e.TotalInstrs()}
		}
		got := make([]result, len(cases))
		errs := make([]error, len(cases))
		var wg sync.WaitGroup
		for i, c := range cases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e, err := RunCtx(context.Background(), w, w.BenchN, c.mode, c.cfg())
				if errs[i] = err; err == nil {
					got[i] = result{e.VM.Out.String(), e.TotalInstrs()}
					if shares := e.VM.SharesProgram(); shares == c.cfg().ElideLocks {
						errs[i] = fmt.Errorf("engine shares the program: %t", shares)
					}
				}
			}()
		}
		wg.Wait()
		for i, c := range cases {
			if errs[i] != nil {
				t.Fatalf("%s/%s shared: %v", w.Name, c.name, errs[i])
			}
			if got[i] != want[i] {
				t.Errorf("%s/%s: shared program printed %q in %d instructions, fresh compile %q in %d",
					w.Name, c.name, got[i].out, got[i].instrs, want[i].out, want[i].instrs)
			}
		}
	}
}

// TestElisionRefusesSharedProgram: lock elision on an engine that
// installed a shared program fails the run with an error and rewrites
// nothing, where the same run on a private load elides.
func TestElisionRefusesSharedProgram(t *testing.T) {
	w := workloads.Mtrt()
	p, err := vm.Link(w.Classes(w.BenchN))
	if err != nil {
		t.Fatal(err)
	}
	before := linkLayout(p.Classes) + codeOf(p.Classes)
	e := core.New(core.Config{ElideLocks: true})
	if err := e.VM.Install(p); err != nil {
		t.Fatal(err)
	}
	main, err := e.VM.LookupMain()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(main); err == nil || !strings.Contains(err.Error(), "shared") {
		t.Fatalf("lock elision on a shared program: err = %v, want a refusal", err)
	}
	if after := linkLayout(p.Classes) + codeOf(p.Classes); after != before {
		t.Fatalf("a refused elision changed the shared program:\n%s", firstDiff(after, before))
	}
	if err := e.PrecompileAll(); err == nil {
		t.Fatal("precompiling after the refusal succeeded")
	}

	private, err := RunCtx(context.Background(), w, w.BenchN, ModeJIT, core.Config{ElideLocks: true})
	if err != nil {
		t.Fatal(err)
	}
	if private.ElidedSyncSites+private.ElidedMonitorOps == 0 {
		t.Fatalf("%s elides no lock on a private load: the refusal above shows nothing", w.Name)
	}
}

// codeOf renders every method's bytecode and pool size.
func codeOf(classes []*bytecode.Class) string {
	var b strings.Builder
	for _, c := range classes {
		fmt.Fprintf(&b, "%s pool methods=%d\n", c.Name, len(c.Pool.Methods))
		for _, m := range c.Methods {
			fmt.Fprintf(&b, "  %s %v\n", m.FullName(), m.Code)
		}
	}
	return b.String()
}

// TestWarmRunAllocatesLessThanCompile: once (javac, scale) is linked, a
// RunCtx of it neither compiles nor links. It makes fewer host
// allocations than one MiniJava compile of the same source (linking
// alone makes more than a compile), and it allocates at least a
// compile's bytes less than the same run on a fresh compile. Its bytes
// alone exceed a compile's: the simulated heap's pages are most of
// them.
func TestWarmRunAllocatesLessThanCompile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the engine under an allocation count")
	}
	w := workloads.Javac()
	n := w.BenchN
	measure := func(f func()) (mallocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}
	run := func(run func() (*core.Engine, error)) func() {
		return func() {
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	warmRun := run(func() (*core.Engine, error) {
		return RunCtx(context.Background(), w, n, ModeInterp, core.Config{})
	})
	warmRun()
	compileMallocs, compileBytes := measure(func() { w.Classes(n) })
	_, coldBytes := measure(run(func() (*core.Engine, error) {
		return RunClassesCtx(context.Background(), w.Name, w.Classes(n), ModeInterp, core.Config{})
	}))
	warmMallocs, warmBytes := measure(warmRun)
	if warmMallocs >= compileMallocs {
		t.Errorf("a warm run of %s mallocs %d times, a compile of it %d", w.Name, warmMallocs, compileMallocs)
	}
	if warmBytes+compileBytes >= coldBytes {
		t.Errorf("a warm run of %s allocates %d bytes, a run on a fresh compile %d: it saves less than the compile's %d",
			w.Name, warmBytes, coldBytes, compileBytes)
	}
}

// TestSharedFactsMatchFresh: after every engine configuration of
// sharedRunCases, plus a second devirtualizing engine, has run at once
// on each workload's shared program, the program's whole-program facts
// give exactly the analyze row (ipa, races and checks) that a fresh
// compile and link give. Every devirtualizing engine reads the
// program's own ipa result, and every check-eliding one its ranges.
// Run under -race, it shows that no engine writes into the facts.
func TestSharedFactsMatchFresh(t *testing.T) {
	for _, w := range workloads.All() {
		p, err := linkedProgram(w, w.BenchN)
		if err != nil {
			t.Fatal(err)
		}
		cases := append(sharedRunCases(), sharedRunCase{"devirt-aot", ModeAOT, func() core.Config { return core.Config{Devirt: true} }})
		engines := make([]*core.Engine, len(cases))
		errs := make([]error, len(cases))
		var wg sync.WaitGroup
		for i, c := range cases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				engines[i], errs[i] = RunCtx(context.Background(), w, w.BenchN, c.mode, c.cfg())
			}()
		}
		wg.Wait()
		for i, c := range cases {
			if errs[i] != nil {
				t.Fatalf("%s/%s: %v", w.Name, c.name, errs[i])
			}
			e, cfg := engines[i], c.cfg()
			if cfg.ElideLocks {
				continue
			}
			if cfg.Devirt && e.IPA != p.IPA() {
				t.Errorf("%s/%s: the engine's ipa result is not its shared program's", w.Name, c.name)
			}
			if cfg.ElideBounds && e.VRange != p.Ranges() {
				t.Errorf("%s/%s: the engine's value ranges are not its shared program's", w.Name, c.name)
			}
		}

		fresh, err := vm.Link(w.Classes(w.BenchN))
		if err != nil {
			t.Fatal(err)
		}
		var rows [2]string
		for i, prog := range []*vm.Program{p, fresh} {
			row, err := analyzeProgram(w.Name, prog, true, true)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			out, err := json.MarshalIndent(row, "", " ")
			if err != nil {
				t.Fatal(err)
			}
			rows[i] = string(out)
		}
		if rows[0] != rows[1] {
			t.Errorf("%s: the shared program's facts differ from a fresh link's:\n%s", w.Name, firstDiff(rows[0], rows[1]))
		}
	}
}

// TestWarmAnalyzeAllocatesLittle: the whole-program facts are built
// once per program, so a second analysis of all eight programs, with
// races and checks, mallocs a small fraction of what the first does.
// The workloads are copies whose source gains a trailing newline: that
// keys programs of their own, which no other test has analyzed.
func TestWarmAnalyzeAllocatesLittle(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes all eight programs under an allocation count")
	}
	var ws []workloads.Workload
	for _, w := range workloads.All() {
		w.Source += "\n"
		if _, err := linkedProgram(w, w.DefaultN); err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	o := Options{Workloads: ws, Races: true, Checks: true}
	analyzeMallocs := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := AnalyzeWith(o, serialRunner()); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	cold := analyzeMallocs()
	warm := analyzeMallocs()
	if warm*10 > cold {
		t.Errorf("a second analysis of %d programs mallocs %d times, the first %d: want under a tenth", len(ws), warm, cold)
	}
}
