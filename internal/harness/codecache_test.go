package harness

import (
	"context"
	"testing"

	"jrs/internal/core"
	"jrs/internal/jit/codecache"
	"jrs/internal/workloads"
)

// runOut executes w and returns the program output plus the engine.
func runOut(t *testing.T, w workloads.Workload, mode Mode, cfg core.Config) (string, *core.Engine) {
	t.Helper()
	e, err := RunCtx(context.Background(), w, w.BenchN, mode, cfg)
	if err != nil {
		t.Fatalf("%s/%v: %v", w.Name, mode, err)
	}
	return e.VM.Out.String(), e
}

// TestCodeCacheDifferential pins byte-identical program output for every
// workload under jit and aot across the cache states: cold (populating),
// warm (all hits), and three engines racing one fresh cache. A shared
// translation must never change what the program prints.
func TestCodeCacheDifferential(t *testing.T) {
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			wantJIT, _ := runOut(t, w, ModeJIT, core.Config{})
			wantAOT, _ := runOut(t, w, ModeAOT, core.Config{})

			cc := codecache.NewMemory()
			if out, e := runOut(t, w, ModeJIT, core.Config{CodeCache: cc}); out != wantJIT {
				t.Errorf("cold jit output diverged")
			} else if e.JIT.CacheHits != 0 {
				t.Errorf("cold run reported %d hits", e.JIT.CacheHits)
			}
			out, e := runOut(t, w, ModeJIT, core.Config{CodeCache: cc})
			if out != wantJIT {
				t.Errorf("warm jit output diverged")
			}
			if e.JIT.CacheMisses != 0 || e.JIT.CacheHits == 0 {
				t.Errorf("warm run: %d hits, %d misses; want all hits",
					e.JIT.CacheHits, e.JIT.CacheMisses)
			}
			if e.JIT.Translations != 0 {
				t.Errorf("warm run translated %d methods", e.JIT.Translations)
			}
			if out, _ := runOut(t, w, ModeAOT, core.Config{CodeCache: cc}); out != wantAOT {
				t.Errorf("warm aot output diverged")
			}

			// Three engines race one fresh cache: outputs stay pinned and
			// singleflight keeps the aggregate translate count at the
			// cold-run level.
			cc2 := codecache.NewMemory()
			type res struct {
				out  string
				mode Mode
				err  error
			}
			modes := []Mode{ModeJIT, ModeJIT, ModeAOT}
			ch := make(chan res, len(modes))
			for _, m := range modes {
				go func() {
					e, err := RunCtx(context.Background(), w, w.BenchN, m, core.Config{CodeCache: cc2})
					if err != nil {
						ch <- res{mode: m, err: err}
						return
					}
					ch <- res{out: e.VM.Out.String(), mode: m}
				}()
			}
			for range modes {
				r := <-ch
				if r.err != nil {
					t.Fatalf("shared %v: %v", r.mode, r.err)
				}
				want := wantJIT
				if r.mode == ModeAOT {
					want = wantAOT
				}
				if r.out != want {
					t.Errorf("shared %v output diverged", r.mode)
				}
			}
		})
	}
}

// keysByName maps method full name → translation key for one engine.
func keysByName(e *core.Engine) map[string]string {
	m := make(map[string]string, len(e.JIT.Keys))
	for id, key := range e.JIT.Keys {
		m[e.VM.MethodByID[id].FullName()] = key
	}
	return m
}

// TestCodeCacheKeyDeterminism asserts the content address is a pure
// function of (bytecode, options, facts): two independent engines —
// separate caches, separate VM instances, arbitrary map iteration —
// compute identical keys per method, while flipping devirtualization
// moves every call-bearing method to a different key.
func TestCodeCacheKeyDeterminism(t *testing.T) {
	w, _ := workloads.ByName("db")
	_, e1 := runOut(t, w, ModeJIT, core.Config{CodeCache: codecache.NewMemory()})
	_, e2 := runOut(t, w, ModeJIT, core.Config{CodeCache: codecache.NewMemory()})
	k1, k2 := keysByName(e1), keysByName(e2)
	if len(k1) == 0 {
		t.Fatal("no keys recorded")
	}
	for name, key := range k1 {
		if k2[name] != key {
			t.Errorf("%s: key differs across engines:\n  %s\n  %s", name, key, k2[name])
		}
	}
	if len(k2) != len(k1) {
		t.Errorf("key count differs: %d vs %d", len(k1), len(k2))
	}

	// Devirtualization changes the generated code, so it must change the
	// address too — a shared cache across differently-configured engines
	// must never alias their translations.
	_, e3 := runOut(t, w, ModeJIT, core.Config{CodeCache: codecache.NewMemory(), JITOptions: jitNoDevirt()})
	k3 := keysByName(e3)
	same := 0
	for name, key := range k1 {
		if k3[name] == key {
			same++
		}
	}
	if same == len(k1) {
		t.Error("devirt on/off produced identical key sets")
	}
}

// TestCodeCacheFactsInvalidation shares one cache across configurations
// whose IPA facts differ and asserts the differently-configured run
// never consumes the other's translations where they would be stale.
func TestCodeCacheFactsInvalidation(t *testing.T) {
	t.Run("elide-bounds", func(t *testing.T) {
		w, _ := workloads.ByName("compress")
		elided := core.Config{ElideBounds: true, ElideNull: true}
		wantOn, _ := runOut(t, w, ModeJIT, elided)
		wantOff, _ := runOut(t, w, ModeJIT, core.Config{})

		cc := codecache.NewMemory()
		on := elided
		on.CodeCache = cc
		if out, _ := runOut(t, w, ModeJIT, on); out != wantOn {
			t.Fatal("elided populate run diverged")
		}
		// The unelided run shares the cache but must not hit: its options
		// and per-site verdicts key differently, so every method
		// re-translates with full checking.
		out, e := runOut(t, w, ModeJIT, core.Config{CodeCache: cc})
		if out != wantOff {
			t.Error("unelided run over elided cache diverged")
		}
		if e.JIT.CacheHits != 0 {
			t.Errorf("unelided run consumed %d stale elided translations", e.JIT.CacheHits)
		}
		// And back: the elided configuration still hits its own entries.
		if _, e := runOut(t, w, ModeJIT, on); e.JIT.CacheMisses != 0 {
			t.Errorf("elided rerun missed %d times on its own entries", e.JIT.CacheMisses)
		}
	})

	t.Run("lock-elision-veto", func(t *testing.T) {
		// racy.mj is the workload whose escape analysis vetoes elision on
		// the shared counter: the veto must survive cache sharing with an
		// elided run in both directions.
		w := exampleWorkload(t, "racy.mj")
		wantOn, _ := runOut(t, w, ModeJIT, core.Config{ElideLocks: true})
		wantOff, _ := runOut(t, w, ModeJIT, core.Config{})

		cc := codecache.NewMemory()
		if out, _ := runOut(t, w, ModeJIT, core.Config{ElideLocks: true, CodeCache: cc}); out != wantOn {
			t.Error("elide-locks populate run diverged")
		}
		if out, _ := runOut(t, w, ModeJIT, core.Config{CodeCache: cc}); out != wantOff {
			t.Error("baseline run over elide-locks cache diverged")
		}
		if out, _ := runOut(t, w, ModeJIT, core.Config{ElideLocks: true, CodeCache: cc}); out != wantOn {
			t.Error("elide-locks rerun over mixed cache diverged")
		}
	})
}

// TestCodeCacheCorruptDiskEntries populates a disk store, tears every
// entry, and asserts a fresh handle degrades to misses — same output,
// zero disk hits, and the store is repaired by the re-translation.
func TestCodeCacheCorruptDiskEntries(t *testing.T) {
	w, _ := workloads.ByName("hello")
	want, _ := runOut(t, w, ModeJIT, core.Config{})

	dir := t.TempDir()
	c1, err := codecache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := runOut(t, w, ModeJIT, core.Config{CodeCache: c1}); out != want {
		t.Fatal("populate run diverged")
	}
	keys := c1.Keys()
	if len(keys) == 0 {
		t.Fatal("no entries persisted")
	}
	for _, k := range keys {
		if err := c1.Corrupt(k); err != nil {
			t.Fatal(err)
		}
	}

	c2, err := codecache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	out, e := runOut(t, w, ModeJIT, core.Config{CodeCache: c2})
	if out != want {
		t.Error("run over torn store diverged")
	}
	s := c2.Stats()
	if s.DiskHits != 0 || s.Hits != 0 {
		t.Errorf("torn entries served: %+v", s)
	}
	if e.JIT.Translations == 0 || int64(e.JIT.Translations) != s.Misses {
		t.Errorf("expected full re-translation: %d translations, %d misses",
			e.JIT.Translations, s.Misses)
	}

	// The re-translation repaired the store: a third handle hits on disk.
	c3, err := codecache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := runOut(t, w, ModeJIT, core.Config{CodeCache: c3}); out != want {
		t.Error("run over repaired store diverged")
	}
	if c3.Stats().DiskHits == 0 {
		t.Error("repaired store served no disk hits")
	}
}

// TestAblateCodeCacheShape asserts the golden's semantic claim: for
// every golden workload the warm and disk-warm translate phases are
// strictly below cold, and 4-way sharing translates each key once.
func TestAblateCodeCacheShape(t *testing.T) {
	res := runAs[*AblateCodeCacheResult](t, "ablate-codecache", helloOpts("hello", "compress", "db", "jess"))
	for _, row := range res.Rows {
		if row.TranslateWarm >= row.TranslateCold {
			t.Errorf("%s: warm translate %d !< cold %d", row.Workload, row.TranslateWarm, row.TranslateCold)
		}
		if row.TranslateDisk >= row.TranslateCold {
			t.Errorf("%s: disk translate %d !< cold %d", row.Workload, row.TranslateDisk, row.TranslateCold)
		}
		if row.ColdMisses == 0 || row.WarmHits != row.ColdMisses {
			t.Errorf("%s: cold misses %d, warm hits %d", row.Workload, row.ColdMisses, row.WarmHits)
		}
		if row.SharedMisses != row.ColdMisses || row.SharedHits != 3*row.ColdMisses {
			t.Errorf("%s: shared misses/hits %d/%d, want %d/%d",
				row.Workload, row.SharedMisses, row.SharedHits, row.ColdMisses, 3*row.ColdMisses)
		}
	}
}

// TestCodeCacheTieredReuse exercises the tier-2 path: a second engine
// over a warm cache must hit on its reoptimizations too, and a compiler
// with a cache keeps hit/miss accounting consistent with Translations.
func TestCodeCacheTieredReuse(t *testing.T) {
	w, _ := workloads.ByName("db")
	cc := codecache.NewMemory()
	_, e1 := runOut(t, w, ModeJIT, core.Config{CodeCache: cc})
	if e1.JIT.CacheMisses != e1.JIT.Translations {
		t.Errorf("cold: %d misses vs %d translations", e1.JIT.CacheMisses, e1.JIT.Translations)
	}
	_, e2 := runOut(t, w, ModeJIT, core.Config{CodeCache: cc})
	if e2.JIT.Translations != 0 || e2.JIT.CacheMisses != 0 {
		t.Errorf("warm: %d translations, %d misses", e2.JIT.Translations, e2.JIT.CacheMisses)
	}
	if e2.JIT.Reoptimizations != e1.JIT.Reoptimizations {
		t.Errorf("warm run reoptimized %d methods, cold %d — tier-2 installs must replay",
			e2.JIT.Reoptimizations, e1.JIT.Reoptimizations)
	}
}
