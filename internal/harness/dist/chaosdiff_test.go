package dist

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"jrs/internal/harness"
	"jrs/internal/harness/chaos"
)

// TestChaosDifferentialCrashRestart is the PR's acceptance pin: fig9
// AND fig10 run on three chaos-ridden workers (injected panics and
// transient errors, dropped/duplicated/delayed frames, whole-worker
// kills) while the coordinator crashes mid-grid and is restarted on the
// same cache directory — and the merged output must still be
// byte-identical to an uninterrupted serial run. CI runs this test; it
// is the proof that every robustness mechanism composes: lease
// recovery, classified retry, at-most-once journal commits, and a
// restart served from the build-stamped result cache.
func TestChaosDifferentialCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos differential runs multi-second javac cells")
	}
	grid := GridSpec{
		Experiments: []string{"fig9", "fig10"},
		Opts:        OptionsSpec{Quick: true, Workloads: []string{"hello", "javac"}},
	}
	crashAfter := int64(2) // of 4 unique cells (fig10 reuses fig9's)
	if raceEnabled {
		// javac cells run ~20× slower under the race detector; keep the
		// full mechanism coverage but on the cheap grid.
		grid.Opts.Workloads = []string{"hello"}
		crashAfter = 1 // of 2 unique cells
	}
	totalCells := int64(2 * len(grid.Opts.Workloads))
	want := serialOutput(t, grid)

	dir := t.TempDir()
	cellChaos := chaos.Spec{Seed: 7, PanicRate: 0.15, ErrRate: 0.15, UpTo: 2}
	netChaos := chaos.NetSpec{Seed: 11, DropRate: 0.08, DelayRate: 0.15, DupRate: 0.08, KillRate: 0.12, MaxDelay: 3 * time.Millisecond}

	openJournal := func() *harness.Journal {
		j, err := harness.OpenJournal(filepath.Join(dir, harness.JournalName))
		if err != nil {
			t.Fatalf("journal: %v", err)
		}
		return j
	}
	cache, err := harness.OpenResultCache(dir)
	if err != nil {
		t.Fatalf("cache: %v", err)
	}
	cfg := Config{
		LeaseTTL: 500 * time.Millisecond,
		Retries:  15,
		Cache:    cache,
	}

	// Phase 1: coordinator with the crash hook armed — it kills itself
	// (listener, connections, journal lock released) after two commits,
	// mid-grid by construction (the grid has four unique cells).
	cfg1 := cfg
	cfg1.Journal = openJournal()
	cfg1.crashAfter = crashAfter
	c1 := NewCoordinator(cfg1)
	addr1, err := c1.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("start: %v", err)
	}

	// Workers dial through a mutable address, so they survive the
	// coordinator moving: after the restart they reconnect to the new
	// port on their own.
	var mu sync.Mutex
	addr := addr1
	startWorkers(t, 3, &addr, &mu, cellChaos, netChaos)

	if out, err := Submit(addr1, grid, 240*time.Second); err == nil {
		// The submitter must never see a completed grid from a
		// coordinator that died mid-grid.
		t.Fatalf("submit to crashing coordinator returned output (exit %d) — crash hook did not fire", out.ExitCode)
	}
	c1.Stop() // idempotent; joins the goroutines and releases the journal lock

	// Phase 2: restart on the same directory. The crashed run's
	// commits are served from the result cache; the rest re-lease to
	// the (reconnecting) workers. The client resubmits — at-most-once
	// commits make that safe.
	cfg2 := cfg
	cfg2.Journal = openJournal()
	c2 := NewCoordinator(cfg2)
	addr2, err := c2.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(c2.Stop)
	mu.Lock()
	addr = addr2
	mu.Unlock()

	out, err := Submit(addr2, grid, 240*time.Second)
	if err != nil {
		t.Fatalf("resubmit after restart: %v", err)
	}
	if out.ExitCode != 0 {
		t.Fatalf("restarted run: exit %d, err %q", out.ExitCode, out.ErrMsg)
	}
	if out.Output != want {
		t.Fatalf("chaos + crash-restart output differs from serial:\n--- serial ---\n%s\n--- dist ---\n%s", want, out.Output)
	}
	// The restart must have served the crashed run's commits from the
	// cache instead of re-leasing everything.
	if got := c2.Committed(); got >= totalCells {
		t.Fatalf("restarted coordinator committed %d of %d cells — the restart served nothing from the cache", got, totalCells)
	}
}
