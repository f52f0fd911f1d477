package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
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

// programLayout renders everything a link decides: linkLayout and
// codeOf over the program's classes, then every method by id (lock
// elision's clones included), the clone alias and the elision counts.
func programLayout(p *vm.Program) string {
	var b strings.Builder
	b.WriteString(linkLayout(p.Classes))
	b.WriteString(codeOf(p.Classes))
	for id, m := range p.Methods {
		fmt.Fprintf(&b, "id %d: %s flags=%#x addr=%#x\n", id, m.FullName(), m.Flags, m.Addr)
	}
	clones := make([]int, 0, len(p.Alias))
	for id := range p.Alias {
		clones = append(clones, id)
	}
	slices.Sort(clones)
	for _, id := range clones {
		fmt.Fprintf(&b, "alias %d -> %d\n", id, p.Alias[id])
	}
	fmt.Fprintf(&b, "lock-elided=%t sync-sites=%d monitor-ops=%d\n", p.LockElided, p.ElidedSyncSites, p.ElidedMonitorOps)
	return b.String()
}

// freshLink compiles w at scale n and links it afresh, as cfg runs it:
// by vm.LinkElided when cfg elides locks, by vm.Link otherwise.
func freshLink(w workloads.Workload, n int, cfg core.Config) (*vm.Program, error) {
	if cfg.ElideLocks {
		return vm.LinkElided(w.Classes(n))
	}
	return vm.Link(w.Classes(n))
}

// runFresh runs w at scale n on a program freshLink builds for it.
func runFresh(w workloads.Workload, n int, mode Mode, cfg core.Config) (*core.Engine, error) {
	p, err := freshLink(w, n, cfg)
	if err != nil {
		return nil, err
	}
	return runEngine(context.Background(), w.Name, func(v *vm.VM) error { return v.Install(p) }, mode, cfg)
}

// TestSharedProgramMatchesFresh: at the bench scale, a JIT run on the
// process's linked program of every workload, plain and lock-elided,
// asks the code cache for exactly the keys a run on a fresh compile
// asks for; after those runs, each shared program at two scales holds
// the code and lays out, rewrites and resolves exactly what a fresh
// compile and link do (a fresh VM.Load for the plain program, a fresh
// vm.LinkElided for the elided one): ids, clone ids and their alias,
// addresses, vtables, pool targets and elision counts.
func TestSharedProgramMatchesFresh(t *testing.T) {
	for _, w := range workloads.All() {
		for _, elide := range []bool{false, true} {
			shared, cold := codecache.NewMemory(), codecache.NewMemory()
			if _, err := RunCtx(context.Background(), w, w.BenchN, ModeJIT, core.Config{ElideLocks: elide, CodeCache: shared}); err != nil {
				t.Fatal(err)
			}
			if _, err := runFresh(w, w.BenchN, ModeJIT, core.Config{ElideLocks: elide, CodeCache: cold}); err != nil {
				t.Fatal(err)
			}
			if got, want := shared.Keys(), cold.Keys(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s (elide %t): a JIT run on the shared program used %d code-cache keys, a fresh compile %d (or different ones)", w.Name, elide, len(got), len(want))
			}
			for _, n := range []int{w.BenchN, w.DefaultN} {
				p, err := linkedProgram(w, n, elide)
				if err != nil {
					t.Fatalf("%s@%d: %v", w.Name, n, err)
				}
				var fresh *vm.Program
				if elide {
					fresh, err = vm.LinkElided(w.Classes(n))
				} else {
					v := vm.New(nil, nil)
					err = v.Load(w.Classes(n))
					fresh = v.Program()
				}
				if err != nil {
					t.Fatalf("%s@%d fresh: %v", w.Name, n, err)
				}
				if got, want := programLayout(p), programLayout(fresh); got != want {
					t.Fatalf("%s@%d (elide %t): shared program's link differs from a fresh one:\n%s", w.Name, n, elide, firstDiff(got, want))
				}
				for id, m := range p.Methods {
					if m.ID != id {
						t.Fatalf("%s@%d: method %s at index %d has id %d", w.Name, n, m.FullName(), id, m.ID)
					}
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
		{"elide-locks-checks", ModeInterp, cfg(core.Config{ElideLocks: true, ElideBounds: true, ElideNull: true})},
	}
}

// TestSharedProgramConcurrentEngines runs every engine configuration of
// sharedRunCases at once on separate goroutines, on the one shared
// program of each workload (the lock-eliding ones on its shared
// lock-elided program), and requires each to share that program and to
// print and simulate exactly what the same configuration does on a
// fresh compile. The workloads are copies whose source gains a trailing
// newline, which keys programs no other test runs, so they hold no
// translation record yet (in a process's first run of the test): the JIT,
// AOT and tiered engines, which key their tier-1 translations alike,
// race to record and replay the same methods. A JIT run on a privately
// linked program (RunClassesCtx), first alone and then racing with the
// others, records on its own program and leaves none on the shared
// one. Run under -race, it shows that nothing writes into a shared
// program or its records.
func TestSharedProgramConcurrentEngines(t *testing.T) {
	type result struct {
		out    string
		instrs uint64
	}
	records := func(p *vm.Program) int {
		n := 0
		p.Translations().Range(func(_, _ any) bool { n++; return true })
		return n
	}
	for _, name := range []string{"mtrt", "db"} {
		w, _ := workloads.ByName(name)
		w.Source += "\n"
		cases := sharedRunCases()
		want := make([]result, len(cases))
		for i, c := range cases {
			e, err := runFresh(w, w.BenchN, c.mode, c.cfg())
			if err != nil {
				t.Fatalf("%s/%s fresh: %v", w.Name, c.name, err)
			}
			want[i] = result{e.VM.Out.String(), e.TotalInstrs()}
		}
		shared, err := linkedProgram(w, w.BenchN, false)
		if err != nil {
			t.Fatal(err)
		}
		private := func() (result, error) {
			e, err := RunClassesCtx(context.Background(), w.Name, w.Classes(w.BenchN), ModeJIT, core.Config{})
			if err != nil {
				return result{}, err
			}
			switch p := e.VM.Program(); {
			case p == shared:
				return result{}, errors.New("the private run installed the shared program")
			case records(p) == 0:
				return result{}, errors.New("the private run recorded no translation on its own program")
			}
			return result{e.VM.Out.String(), e.TotalInstrs()}, nil
		}
		wantJIT := want[slices.IndexFunc(cases, func(c sharedRunCase) bool { return c.name == "jit" })]
		before := records(shared)
		if got, err := private(); err != nil || got != wantJIT {
			t.Fatalf("%s private: %v (printed %q in %d instructions)", w.Name, err, got.out, got.instrs)
		}
		if n := records(shared) - before; n != 0 {
			t.Fatalf("%s: a run on a private program left %d records on the shared one", w.Name, n)
		}
		got := make([]result, len(cases)+1)
		errs := make([]error, len(cases)+1)
		var wg sync.WaitGroup
		for i, c := range cases {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e, err := RunCtx(context.Background(), w, w.BenchN, c.mode, c.cfg())
				if errs[i] = err; err != nil {
					return
				}
				got[i] = result{e.VM.Out.String(), e.TotalInstrs()}
				p, err := linkedProgram(w, w.BenchN, c.cfg().ElideLocks)
				if errs[i] = err; err == nil && e.VM.Program() != p {
					errs[i] = errors.New("the engine does not run the shared program")
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[len(cases)], errs[len(cases)] = private()
		}()
		wg.Wait()
		cases = append(cases, sharedRunCase{name: "jit-private"})
		want = append(want, wantJIT)
		for i, c := range cases {
			if errs[i] != nil {
				t.Fatalf("%s/%s shared: %v", w.Name, c.name, errs[i])
			}
			if got[i] != want[i] {
				t.Errorf("%s/%s: shared program printed %q in %d instructions, fresh compile %q in %d",
					w.Name, c.name, got[i].out, got[i].instrs, want[i].out, want[i].instrs)
			}
		}
		if records(shared) == 0 {
			t.Errorf("%s: the JIT engines left no translation record on the shared program", w.Name)
		}
	}
}

// TestElisionNeedsElidedProgram: an engine whose Config.ElideLocks
// disagrees with its program's lock-elided marker fails before it runs
// and leaves the program as it was, both ways round: lock elision on a
// Link program, and a LinkElided program without lock elision. The
// elided program does rewrite mtrt, so the two programs differ.
func TestElisionNeedsElidedProgram(t *testing.T) {
	w := workloads.Mtrt()
	for _, elide := range []bool{true, false} {
		p, err := freshLink(w, w.BenchN, core.Config{ElideLocks: !elide})
		if err != nil {
			t.Fatal(err)
		}
		if !elide && p.ElidedSyncSites+p.ElidedMonitorOps == 0 {
			t.Fatalf("%s: LinkElided elides no lock: the mismatch below shows nothing", w.Name)
		}
		before := programLayout(p)
		e := core.New(core.Config{ElideLocks: elide})
		if err := e.VM.Install(p); err != nil {
			t.Fatal(err)
		}
		main, err := e.VM.LookupMain()
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(main); err == nil || !strings.Contains(err.Error(), "LinkElided") {
			t.Fatalf("ElideLocks=%t on a program with LockElided=%t: err = %v, want a mismatch", elide, p.LockElided, err)
		}
		if e.Stats != nil || e.VM.Out.Len() != 0 {
			t.Fatalf("ElideLocks=%t: the mismatched engine started running", elide)
		}
		if err := e.PrecompileAll(); err == nil {
			t.Fatalf("ElideLocks=%t: precompiling after the mismatch succeeded", elide)
		}
		if after := programLayout(p); after != before {
			t.Fatalf("ElideLocks=%t: a mismatched engine changed its program:\n%s", elide, firstDiff(after, before))
		}
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
// them. A warm plain JIT run translates nothing afresh either: it
// replays the program's translation records, so it too mallocs less
// than a compile. A warm lock-eliding JIT run compiles, links and
// analyzes nothing: it mallocs less than a compile more than a warm
// plain JIT run does.
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
	warmJIT := run(func() (*core.Engine, error) {
		return RunCtx(context.Background(), w, n, ModeJIT, core.Config{})
	})
	warmElide := run(func() (*core.Engine, error) {
		return RunCtx(context.Background(), w, n, ModeJIT, core.Config{ElideLocks: true})
	})
	warmRun()
	warmJIT()
	warmElide()
	compileMallocs, compileBytes := measure(func() { w.Classes(n) })
	_, coldBytes := measure(run(func() (*core.Engine, error) {
		return RunClassesCtx(context.Background(), w.Name, w.Classes(n), ModeInterp, core.Config{})
	}))
	warmMallocs, warmBytes := measure(warmRun)
	if warmMallocs >= compileMallocs {
		t.Errorf("a warm run of %s mallocs %d times, a compile of it %d", w.Name, warmMallocs, compileMallocs)
	}
	jitMallocs, _ := measure(warmJIT)
	if jitMallocs >= compileMallocs {
		t.Errorf("a warm JIT run of %s mallocs %d times, a compile of it %d", w.Name, jitMallocs, compileMallocs)
	}
	if elideMallocs, _ := measure(warmElide); elideMallocs >= jitMallocs+compileMallocs {
		t.Errorf("a warm lock-eliding JIT run of %s mallocs %d times, a warm plain JIT run %d: not less than a compile's %d more",
			w.Name, elideMallocs, jitMallocs, compileMallocs)
	}
	if warmBytes+compileBytes >= coldBytes {
		t.Errorf("a warm run of %s allocates %d bytes, a run on a fresh compile %d: it saves less than the compile's %d",
			w.Name, warmBytes, coldBytes, compileBytes)
	}
}

// TestSharedFactsMatchFresh: after every engine configuration of
// sharedRunCases, plus a second devirtualizing engine, has run at once
// on each workload's shared programs (plain and lock-elided), each
// program's whole-program facts give exactly the analyze row (ipa,
// races and checks) that a fresh compile and link give. Every engine
// runs its shared program; every devirtualizing or lock-eliding engine
// reads the program's own ipa result, and every check-eliding one its
// ranges. Run under -race, it shows that no engine writes into the
// facts.
func TestSharedFactsMatchFresh(t *testing.T) {
	for _, w := range workloads.All() {
		var progs [2]*vm.Program // plain, lock-elided
		for i, elide := range []bool{false, true} {
			p, err := linkedProgram(w, w.BenchN, elide)
			if err != nil {
				t.Fatal(err)
			}
			progs[i] = p
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
			p := progs[0]
			if cfg.ElideLocks {
				p = progs[1]
			}
			if e.VM.Program() != p {
				t.Errorf("%s/%s: the engine does not run its shared program", w.Name, c.name)
			}
			if (cfg.Devirt || cfg.ElideLocks) && e.IPA != p.IPA() {
				t.Errorf("%s/%s: the engine's ipa result is not its shared program's", w.Name, c.name)
			}
			if cfg.ElideBounds && e.VRange != p.Ranges() {
				t.Errorf("%s/%s: the engine's value ranges are not its shared program's", w.Name, c.name)
			}
		}

		for k, elide := range []bool{false, true} {
			fresh, err := freshLink(w, w.BenchN, core.Config{ElideLocks: elide})
			if err != nil {
				t.Fatal(err)
			}
			var rows [2]string
			for i, prog := range []*vm.Program{progs[k], fresh} {
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
				t.Errorf("%s (elide %t): the shared program's facts differ from a fresh link's:\n%s", w.Name, elide, firstDiff(rows[0], rows[1]))
			}
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
		if _, err := linkedProgram(w, w.DefaultN, false); err != nil {
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
