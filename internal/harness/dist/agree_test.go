package dist

import (
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"jrs/internal/harness"
	"jrs/internal/harness/chaos"
)

// workerLines matches what only a distributed report carries: the
// per-worker block and the worker attribution of failure lines.
var workerLines = regexp.MustCompile(`(?m)^workers:\n(  \S+ +\d+ cells.*\n)*|  worker=\S+`)

// localRun runs the grid on a one-worker Runner configured like the
// coordinator and renders it the way jrs prints it: output, the report
// text (keep-going), and the run error.
func localRun(t *testing.T, grid GridSpec, r *harness.Runner) (out, report string, err error) {
	t.Helper()
	opts, oerr := grid.Opts.Options()
	if oerr != nil {
		t.Fatalf("opts: %v", oerr)
	}
	e, ok := harness.Lookup(grid.Experiments[0])
	if !ok {
		t.Fatalf("unknown experiment %q", grid.Experiments[0])
	}
	p := e.Plan(opts)
	if err = r.RunPlans(p); err != nil {
		return "", "", err
	}
	if r.KeepGoing {
		report = r.Report().Render()
	}
	return r.SafeRender(p.Result()), report, nil
}

// distRun submits the grid to a fresh coordinator with one worker.
func distRun(t *testing.T, grid GridSpec, cfg Config, cell chaos.Spec) Output {
	t.Helper()
	_, addr := startCoord(t, cfg)
	var mu sync.Mutex
	startWorkers(t, 1, &addr, &mu, cell, chaos.NetSpec{})
	out, err := Submit(addr, grid, 60*time.Second)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	return out
}

// TestLocalAndDistAgree runs one chaos-ridden grid on a one-worker local
// Runner and on a coordinator with one worker (index 0 keeps the seed):
// the rendered output, the run report (minus worker attribution) and,
// fail-fast, the error text must be identical.
func TestLocalAndDistAgree(t *testing.T) {
	grid := helloGrid("fig2")
	spec := chaos.Spec{Seed: 1, PanicRate: 1, UpTo: 99, Cell: "/interp"}

	t.Run("keepgoing", func(t *testing.T) {
		out, report, err := localRun(t, grid, &harness.Runner{Workers: 1, Retries: 1, KeepGoing: true, Chaos: chaos.New(spec)})
		if err != nil {
			t.Fatalf("local keep-going run: %v", err)
		}
		d := distRun(t, grid, Config{Retries: 1, KeepGoing: true}, spec)
		if d.ExitCode != 3 {
			t.Fatalf("dist: exit %d, err %q; want 3", d.ExitCode, d.ErrMsg)
		}
		if !strings.Contains(report, "cause=panic") || !strings.Contains(report, ", 1 retries") {
			t.Fatalf("chaos spec faulted nothing (or nothing retried):\n%s", report)
		}
		if d.Output != out {
			t.Errorf("output differs:\n--- local ---\n%s\n--- dist ---\n%s", out, d.Output)
		}
		if got := workerLines.ReplaceAllString(d.Report, ""); got != report {
			t.Errorf("report differs:\n--- local ---\n%s\n--- dist ---\n%s", report, got)
		}
	})

	t.Run("failfast", func(t *testing.T) {
		_, _, err := localRun(t, grid, &harness.Runner{Workers: 1, Retries: 1, Chaos: chaos.New(spec)})
		if err == nil {
			t.Fatal("local fail-fast run succeeded")
		}
		d := distRun(t, grid, Config{Retries: 1}, spec)
		if d.ExitCode != 1 || d.ErrMsg != err.Error() {
			t.Errorf("dist: exit %d, err %q; want exit 1, err %q", d.ExitCode, d.ErrMsg, err.Error())
		}
	})
}

// TestCachedCellJournalError: a cache-served cell whose journal record
// fails (a closed Journal refuses appends) must fail with CauseError,
// the same way on a local Runner and through a coordinator.
func TestCachedCellJournalError(t *testing.T) {
	grid := helloGrid("fig2")
	cache, err := harness.OpenResultCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := localRun(t, grid, &harness.Runner{Workers: 1, Cache: cache}); err != nil {
		t.Fatalf("warm the cache: %v", err)
	}
	closed := func() *harness.Journal {
		j, err := harness.OpenJournal(filepath.Join(t.TempDir(), harness.JournalName))
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		return j
	}

	_, report, err := localRun(t, grid, &harness.Runner{Workers: 1, Cache: cache, Journal: closed(), KeepGoing: true})
	if err != nil {
		t.Fatalf("local keep-going run: %v", err)
	}
	if !strings.Contains(report, "cause=error") || !strings.Contains(report, "journal:") {
		t.Fatalf("local run did not fail the cached cells on the journal error:\n%s", report)
	}
	d := distRun(t, grid, Config{Cache: cache, Journal: closed(), KeepGoing: true}, chaos.Spec{})
	if got := workerLines.ReplaceAllString(d.Report, ""); d.ExitCode != 3 || got != report {
		t.Errorf("dist: exit %d, report:\n%s\nwant exit 3, report:\n%s", d.ExitCode, got, report)
	}

	_, _, err = localRun(t, grid, &harness.Runner{Workers: 1, Cache: cache, Journal: closed()})
	if err == nil {
		t.Fatal("local fail-fast run succeeded")
	}
	d = distRun(t, grid, Config{Cache: cache, Journal: closed()}, chaos.Spec{})
	if d.ExitCode != 1 || d.ErrMsg != err.Error() {
		t.Errorf("dist: exit %d, err %q; want exit 1, err %q", d.ExitCode, d.ErrMsg, err.Error())
	}
}
