package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jrs/internal/classfile"
	"jrs/internal/harness"
	"jrs/internal/minijava"
	"jrs/internal/workloads"
)

// TestUnknownExperiment checks the CLI exits non-zero and lists every
// registered experiment when given a bogus name.
func TestUnknownExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"fig99"}, &out, &errb)
	if code == 0 {
		t.Fatalf("run(fig99) exit code = 0, want non-zero")
	}
	msg := errb.String()
	if !strings.Contains(msg, `unknown experiment "fig99"`) {
		t.Errorf("stderr missing unknown-experiment message:\n%s", msg)
	}
	for _, name := range harness.Names() {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr usage listing missing experiment %q", name)
		}
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty on error: %q", out.String())
	}
}

// TestUnknownWorkload checks that every usage error of workload
// selection and `run` exits 2 and names what was wrong: an unknown -w
// or `run` workload, a missing `run` argument, an unknown -mode, and
// each flag a class bundle rejects (checked before the bundle is read).
func TestUnknownWorkload(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-w", "nosuch", "fig1"}, `unknown workload "nosuch"`},
		{[]string{"run"}, "run requires a workload name"},
		{[]string{"run", "nosuch"}, `unknown workload "nosuch"`},
		{[]string{"-mode", "nosuch", "run", "hello"}, `unknown mode "nosuch"`},
		{[]string{"-mode", "opt", "run", "x.jrsc"}, "-mode opt does not apply to a class bundle"},
		{[]string{"-checkraces", "run", "x.jrsc"}, "-checkraces does not apply to a class bundle"},
		{[]string{"-checkelide", "run", "x.jrsc"}, "-checkelide does not apply to a class bundle"},
		{[]string{"-scale", "5", "run", "x.jrsc"}, "-scale does not apply to a class bundle"},
		{[]string{"-quick", "run", "x.jrsc"}, "-quick does not apply to a class bundle"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr: %s)", tc.args, code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.want) {
			t.Errorf("%v: stderr = %q, want %q", tc.args, errb.String(), tc.want)
		}
	}
}

// TestRunClassBundle compiles an example with the cmd/mjc pipeline and
// runs the bundle under every engine: the program output is identical
// across modes, and only the interpreter translates nothing.
func TestRunClassBundle(t *testing.T) {
	const src = "../../examples/minijava/fib.mj"
	text, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	classes, err := minijava.CompileSources(map[string]string{src: string(text)})
	if err != nil {
		t.Fatal(err)
	}
	bundle := filepath.Join(t.TempDir(), "fib.jrsc")
	f, err := os.Create(bundle)
	if err != nil {
		t.Fatal(err)
	}
	if err := classfile.Write(f, classes); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var want string
	for _, mode := range []string{"interp", "jit", "aot"} {
		var out, errb bytes.Buffer
		if code := run([]string{"-mode", mode, "run", bundle}, &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d (stderr: %s)", mode, code, errb.String())
		}
		s := out.String()
		cut := strings.LastIndex(s, "\n[fib.jrsc/"+mode+"] instructions:")
		if cut < 0 {
			t.Fatalf("%s: no summary line:\n%s", mode, s)
		}
		prog, summary := s[:cut], s[cut:]
		if mode == "interp" {
			want = prog
			if prog == "" {
				t.Error("interp: the program printed nothing")
			}
			if !strings.Contains(summary, " translations=0 ") {
				t.Errorf("interp translated methods: %s", summary)
			}
		} else if prog != want {
			t.Errorf("%s output %q differs from interp %q", mode, prog, want)
		}
		if mode == "jit" && strings.Contains(summary, " translations=0 ") {
			t.Errorf("jit translated nothing: %s", summary)
		}
	}
}

// TestNoArgsUsage checks the bare invocation prints usage and fails.
func TestNoArgsUsage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 2 {
		t.Fatalf("run() exit code = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "usage:") {
		t.Errorf("stderr missing usage text:\n%s", errb.String())
	}
}

// TestList checks the list subcommand succeeds and names experiments.
func TestList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"list"}, &out, &errb); code != 0 {
		t.Fatalf("run(list) exit code = %d, stderr:\n%s", code, errb.String())
	}
	for _, want := range []string{"fig1", "fig11", "ablate-tiered", "workloads:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

// TestLintCommand checks the lint subcommand: clean examples exit 0
// with a per-program summary, a missing file exits 1.
func TestLintCommand(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"lint",
		"../../examples/minijava/fib.mj",
		"../../examples/minijava/sieve.mj"}, &out, &errb)
	if code != 0 {
		t.Fatalf("lint examples exit code = %d, stderr:\n%s", code, errb.String())
	}
	if !strings.Contains(out.String(), "2 program(s), 0 finding(s)") {
		t.Errorf("lint summary missing from output:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"lint", "no-such-file.mj"}, &out, &errb); code != 1 {
		t.Errorf("lint missing-file exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
}

// TestExperimentParallelMatchesSerial runs one small experiment through
// the CLI serially and with 8 workers and requires byte-identical
// stdout.
func TestExperimentParallelMatchesSerial(t *testing.T) {
	var serial, par, errb bytes.Buffer
	if code := run([]string{"-quick", "-w", "hello", "-parallel", "1", "fig1"}, &serial, &errb); code != 0 {
		t.Fatalf("serial run failed (%d): %s", code, errb.String())
	}
	errb.Reset()
	if code := run([]string{"-quick", "-w", "hello", "-parallel", "8", "fig1"}, &par, &errb); code != 0 {
		t.Fatalf("parallel run failed (%d): %s", code, errb.String())
	}
	if serial.String() != par.String() {
		t.Errorf("parallel stdout differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.String(), par.String())
	}
}

// TestCachedirReuse runs the same experiment twice with a cache
// directory and requires identical stdout plus cache-hit progress on
// the second run.
func TestCachedirReuse(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-quick", "-w", "hello", "-cachedir", dir, "fig1"}
	var first, second, errb1, errb2 bytes.Buffer
	if code := run(args, &first, &errb1); code != 0 {
		t.Fatalf("first run failed (%d): %s", code, errb1.String())
	}
	if code := run(args, &second, &errb2); code != 0 {
		t.Fatalf("second run failed (%d): %s", code, errb2.String())
	}
	if first.String() != second.String() {
		t.Errorf("cached stdout differs from fresh stdout")
	}
	if !strings.Contains(errb2.String(), "[cache]") {
		t.Errorf("second run shows no cache hits:\n%s", errb2.String())
	}
}

// TestChaosFlagValidation: a malformed -chaos spec is a usage error
// (exit 2) before any simulation starts.
func TestChaosFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-chaos", "panic=2", "fig1"}, &out, &errb); code != 2 {
		t.Fatalf("bad -chaos spec exit code = %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "chaos") {
		t.Errorf("stderr = %q, want a chaos spec error", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("stdout not empty on usage error: %q", out.String())
	}
}

// TestChaosRetriesMatchClean: the CLI-level chaos contract — a run under
// injected faults with retries and a watchdog produces stdout
// byte-identical to a clean run (the CI chaos-smoke step in miniature).
func TestChaosRetriesMatchClean(t *testing.T) {
	var clean, chaotic, errb bytes.Buffer
	if code := run([]string{"-quick", "-w", "hello", "fig2"}, &clean, &errb); code != 0 {
		t.Fatalf("clean run failed (%d): %s", code, errb.String())
	}
	errb.Reset()
	if code := run([]string{"-quick", "-w", "hello",
		"-chaos", "seed=1,panic=0.3,hang=0.2,err=0.3,upto=1",
		"-retries", "3", "-celltimeout", "2s", "fig2"}, &chaotic, &errb); code != 0 {
		t.Fatalf("chaotic run failed (%d): %s", code, errb.String())
	}
	if clean.String() != chaotic.String() {
		t.Errorf("chaotic stdout differs from clean:\n--- clean ---\n%s\n--- chaotic ---\n%s",
			clean.String(), chaotic.String())
	}
}

// TestKeepGoingExitCode: a persistent targeted fault under -keepgoing
// renders the degraded result, appends the run report, and exits 3.
func TestKeepGoingExitCode(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-quick", "-w", "hello", "-keepgoing",
		"-chaos", "seed=1,panic=1,upto=99,cell=/interp", "fig2"}, &out, &errb)
	if code != 3 {
		t.Fatalf("keepgoing degraded run exit code = %d, want 3 (stderr: %s)", code, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "run report:") || !strings.Contains(s, "cause=panic") {
		t.Errorf("stdout missing the run report:\n%s", s)
	}

	// The report is deterministic: a second identical run produces
	// byte-identical stdout.
	var out2, errb2 bytes.Buffer
	if code := run([]string{"-quick", "-w", "hello", "-keepgoing",
		"-chaos", "seed=1,panic=1,upto=99,cell=/interp", "fig2"}, &out2, &errb2); code != 3 {
		t.Fatalf("second degraded run exit code = %d, want 3", code)
	}
	if out.String() != out2.String() {
		t.Errorf("degraded stdout not deterministic:\n--- first ---\n%s\n--- second ---\n%s",
			out.String(), out2.String())
	}
}

// TestCodeCacheReportLine: with -codecache the -keepgoing run report
// carries the shared translation cache's statistics; without it the
// report has no code-cache line.
func TestCodeCacheReportLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{[]string{"-quick", "-w", "hello", "-codecache", "-keepgoing", "fig2"}, true},
		{[]string{"-quick", "-w", "hello", "-keepgoing", "fig2"}, false},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 0 {
			t.Fatalf("%v: exit code = %d, want 0 (stderr: %s)", tc.args, code, errb.String())
		}
		s := out.String()
		if !strings.Contains(s, "run report:") {
			t.Fatalf("%v: stdout has no run report:\n%s", tc.args, s)
		}
		if got := strings.Contains(s, "\ncode cache: "); got != tc.want {
			t.Errorf("%v: code cache line present = %v, want %v:\n%s", tc.args, got, tc.want, s)
		}
	}
}

// TestResumeFlagFlow: interrupt a cached run with a targeted persistent
// panic, then finish it by rerunning on the same -cachedir with no
// chaos; the rerun's stdout must equal an uninterrupted run's.
func TestResumeFlagFlow(t *testing.T) {
	dir := t.TempDir()
	var ref, errb bytes.Buffer
	if code := run([]string{"-quick", "-w", "hello", "fig2"}, &ref, &errb); code != 0 {
		t.Fatalf("reference run failed (%d): %s", code, errb.String())
	}

	var out1, errb1 bytes.Buffer
	code := run([]string{"-quick", "-w", "hello", "-parallel", "1", "-cachedir", dir,
		"-chaos", "seed=1,panic=1,upto=99,cell=/jit", "fig2"}, &out1, &errb1)
	if code != 1 {
		t.Fatalf("interrupted run exit code = %d, want 1 (stderr: %s)", code, errb1.String())
	}

	var out2, errb2 bytes.Buffer
	if code := run([]string{"-quick", "-w", "hello", "-parallel", "1",
		"-cachedir", dir, "fig2"}, &out2, &errb2); code != 0 {
		t.Fatalf("rerun failed (%d): %s", code, errb2.String())
	}
	if out2.String() != ref.String() {
		t.Errorf("rerun stdout differs from uninterrupted:\n--- rerun ---\n%s\n--- reference ---\n%s",
			out2.String(), ref.String())
	}
	if !strings.Contains(errb2.String(), "[cache]") {
		t.Errorf("rerun served nothing from the cache:\n%s", errb2.String())
	}
}

// TestLintRacesCommand: the seeded-race fixture is clean under plain
// lint but fails `jrs lint -races` with the exact race line, and the
// clean worker pool stays green even with the races pass on.
func TestLintRacesCommand(t *testing.T) {
	racy := "../../examples/minijava/racy.mj"
	var out, errb bytes.Buffer
	if code := run([]string{"lint", racy}, &out, &errb); code != 0 {
		t.Fatalf("plain lint of racy.mj exit code = %d, want 0 (stderr: %s)", code, errb.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-races", "lint", racy}, &out, &errb); code != 1 {
		t.Fatalf("lint -races racy.mj exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "race on Shared.x: Racer.run()V @") {
		t.Errorf("lint -races output missing the Shared.x race witness:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-races", "lint",
		"../../examples/minijava/deadlock.mj"}, &out, &errb); code != 1 {
		t.Fatalf("lint -races deadlock.mj exit code = %d, want 1 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "deadlock cycle: alloc:Main.main()V@") {
		t.Errorf("lint -races output missing the deadlock cycle:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-races", "lint",
		"../../examples/minijava/workerpool.mj"}, &out, &errb); code != 0 {
		t.Fatalf("lint -races workerpool.mj exit code = %d, want 0 (stderr: %s)\n%s",
			code, errb.String(), out.String())
	}
}

// TestAnalyzeRacesCommand: -races extends the analyze census with the
// concurrency block.
func TestAnalyzeRacesCommand(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-races", "analyze",
		"../../examples/minijava/racy.mj"}, &out, &errb); code != 0 {
		t.Fatalf("analyze -races exit code = %d (stderr: %s)", code, errb.String())
	}
	for _, want := range []string{
		"concurrency: 2 spawned thread(s), 2 shared location(s), 1 race(s), 0 deadlock cycle(s)",
		"thread spawn@Main.main()V@",
		"race on Shared.x",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("analyze -races output missing %q:\n%s", want, out.String())
		}
	}
}

// TestCheckRacesCommand: the differential runner passes on the
// multithreaded workload under a seeded schedule, and rejects modes
// without an execution engine.
func TestCheckRacesCommand(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-checkraces", "-schedseed", "3",
		"run", "mtrt"}, &out, &errb); code != 0 {
		t.Fatalf("checkraces mtrt exit code = %d (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(out.String(), "checkraces seed=3:") {
		t.Errorf("checkraces output missing its summary line:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-quick", "-checkraces", "-mode", "opt", "run", "mtrt"}, &out, &errb); code != 2 {
		t.Fatalf("checkraces -mode opt exit code = %d, want 2 (stderr: %s)", code, errb.String())
	}
	if !strings.Contains(errb.String(), "-checkraces supports modes") {
		t.Errorf("stderr = %q, want the mode restriction", errb.String())
	}
}

// TestRemoteRejectsLocalFlags: under -remote the scheduler, cache and
// fault-injection flags belong to the coordinator and workers, so each
// one is a usage error naming the flag — checked before any dial.
func TestRemoteRejectsLocalFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-parallel", "2"}, {"-cachedir", "x"}, {"-retries", "1"},
		{"-celltimeout", "1s"}, {"-keepgoing"},
		{"-chaos", "seed=1,panic=1"}, {"-codecache"}, {"-codecachedir", "x"},
		{"-listen", ":0"}, {"-connect", "x"}, {"-name", "x"}, {"-workers", "2"},
		{"-lease", "1s"}, {"-netchaos", "seed=1,drop=0.1"}, {"-v"},
	} {
		var out, errb bytes.Buffer
		argv := append([]string{"-remote", "127.0.0.1:1"}, args...)
		if code := run(append(argv, "fig2"), &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errb.String(), args[0]+" has no effect with -remote") {
			t.Errorf("%v: stderr does not name the flag: %q", args, errb.String())
		}
	}
}

// TestServiceUsageErrors pins the exit-2 inputs of serve, worker and
// inproc: each is refused before a coordinator starts or a worker dials.
func TestServiceUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"worker"}, "worker requires -connect"},
		{[]string{"inproc"}, "inproc requires an experiment"},
		{[]string{"-chaos", "seed=1,corrupt=0.5", "inproc", "fig2"}, "corrupt= is not supported"},
		{[]string{"-connect", "127.0.0.1:1", "-chaos", "corrupt=1", "worker"}, "corrupt= is not supported"},
		{[]string{"-netchaos", "drop=2", "inproc", "fig2"}, "netchaos"},
		{[]string{"-w", "nosuch", "inproc", "fig2"}, `unknown workload "nosuch"`},
		{[]string{"-w", "nosuch", "serve"}, `unknown workload "nosuch"`},
		{[]string{"-w", "nosuch", "-connect", "127.0.0.1:1", "worker"}, `unknown workload "nosuch"`},
		{[]string{"-remote", "127.0.0.1:1", "serve"}, "-remote runs experiment grids only"},
		{[]string{"-remote", "127.0.0.1:1", "worker"}, "-remote runs experiment grids only"},
		{[]string{"-remote", "127.0.0.1:1", "inproc", "fig2"}, "-remote runs experiment grids only"},
		{[]string{"-codecache", "serve"}, "do not apply to serve"},
		{[]string{"-codecachedir", "x", "-connect", "127.0.0.1:1", "worker"}, "do not apply to worker"},
		{[]string{"-codecache", "inproc", "fig2"}, "do not apply to inproc"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.msg) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, errb.String(), tc.msg)
		}
	}
}

// TestInprocGridOptionsMatchLocal: -scale and -checkpipe reach the
// submitted grid. inproc with one worker prints exactly what a local
// run of one experiment prints under the same flags (a Runner, then
// SafeRender), and the scale visibly changes the result.
func TestInprocGridOptionsMatchLocal(t *testing.T) {
	args := []string{"-workers", "1", "-w", "hello", "-scale", "4000", "-checkpipe", "inproc", "fig9"}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, errb.String())
	}
	hello, _ := workloads.ByName("hello")
	exp, _ := harness.Lookup("fig9")
	local := func(scale int) string {
		runner := &harness.Runner{}
		r, err := exp.RunWith(harness.Options{Scale: scale, CheckPipe: true, Workloads: []workloads.Workload{hello}}, runner)
		if err != nil {
			t.Fatal(err)
		}
		return runner.SafeRender(r)
	}
	if want := local(4000); out.String() != want {
		t.Errorf("inproc output differs from a local run:\n%s\nwant:\n%s", out.String(), want)
	}
	if out.String() == local(0) {
		t.Error("-scale 4000 renders like the default scale: the flag did not reach the grid")
	}
}

// runService runs a serve or worker command line. Should the command
// start its service instead of refusing its flags, it is interrupted
// after two seconds, as SIGINT at a terminal would stop it, and its
// exit code is returned all the same.
func runService(t *testing.T, args []string) (code int, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run(args, &out, &errb) }()
	select {
	case code = <-done:
	case <-time.After(2 * time.Second):
		self, err := os.FindProcess(os.Getpid())
		if err != nil {
			t.Fatal(err)
		}
		if err := self.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		code = <-done
	}
	return code, errb.String()
}

// TestWorkerRejectsCoordinatorFlags: the coordinator owns the result
// cache, the retry budget and keep-going, so worker refuses the flags
// instead of ignoring them.
func TestWorkerRejectsCoordinatorFlags(t *testing.T) {
	for _, args := range [][]string{{"-cachedir", t.TempDir()}, {"-retries", "3"}, {"-keepgoing"}} {
		code, stderr := runService(t, append(args, "-connect", "127.0.0.1:1", "worker"))
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr, args[0]+" has no effect on worker") {
			t.Errorf("%v: stderr does not name the flag: %q", args, stderr)
		}
	}
}

// TestServeRejectsWorkerFlags: the workers own the cell watchdog and
// fault injection, so serve refuses the flags instead of ignoring them.
func TestServeRejectsWorkerFlags(t *testing.T) {
	for _, args := range [][]string{{"-celltimeout", "1s"}, {"-chaos", "seed=1,panic=1"}} {
		code, stderr := runService(t, append(args, "-listen", "127.0.0.1:0", "serve"))
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr, args[0]+" has no effect on serve") {
			t.Errorf("%v: stderr does not name the flag: %q", args, stderr)
		}
	}
}
