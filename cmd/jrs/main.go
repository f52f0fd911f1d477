// Command jrs runs the paper-reproduction experiments.
//
// Usage:
//
//	jrs list                 show available experiments
//	jrs <experiment>         run one experiment (fig1..fig11, table1..table3, ablate-*)
//	jrs all                  run every experiment
//	jrs run <workload>       execute one workload and print its output
//	jrs run prog.jrsc        execute a class bundle compiled by cmd/mjc
//	jrs lint [file.mj ...]   run the static-analysis passes over every
//	                         workload (default) or the given MiniJava
//	                         sources; exits 1 if any finding is reported
//	jrs analyze [file.mj ...]  whole-program interprocedural analysis
//	                         report (call graph, devirtualization,
//	                         lock elision, purity) over every workload
//	                         (default) or the given MiniJava sources
//	jrs serve                run a distributed grid coordinator: it leases
//	                         cells to workers over TCP and merges their
//	                         results byte-identically to a serial run
//	jrs -connect A worker    run a worker against the coordinator at A
//	jrs inproc <exp|all>     loopback smoke: coordinator, -workers N
//	                         in-process workers and one submitted grid
//
// With -races, lint and analyze add the static concurrency analysis
// (internal/analysis/conc): may-happen-in-parallel race pairs and
// lock-order deadlock cycles count as findings. With -checkraces,
// `jrs run` attaches the dynamic vector-clock race detector and fails
// if it observes a race the static report does not subsume.
//
// With -checkelide, lint and analyze add the provable runtime-check
// census (internal/analysis/vrange: value-range and nullness analysis),
// and `jrs run` executes the workload twice — baseline, then with the
// proven bounds/null checks elided and a dynamic oracle re-validating
// every elided site — failing if outputs diverge or any elided check
// would have fired (the subsumption invariant).
//
// Flags:
//
//	-scale N      override every workload's input size (0 = default)
//	-quick        use each workload's reduced benchmark scale
//	-mode M       execution mode for `run` (interp, jit, aot, opt; a
//	              class bundle takes interp, jit or aot, and rejects
//	              -scale, -quick, -checkraces and -checkelide)
//	-w names      comma-separated workload subset for experiments
//	-parallel N   simulation workers (0 = GOMAXPROCS, 1 = serial)
//	-cachedir D   persist per-cell results under D and reuse them on re-runs
//	              of the same build (another build re-simulates; rerun
//	              an interrupted run to continue it)
//	-codecache    share one in-process JIT translation cache across every
//	              engine the command builds (experiments and `run`); with
//	              -parallel, which cell pays each translation is
//	              scheduling-dependent (aggregate stats stay fixed)
//	-codecachedir D  back the shared translation cache with a persistent
//	              on-disk store under D (implies -codecache; corrupt or
//	              stale entries degrade to misses)
//	-celltimeout D watchdog deadline per cell attempt (0 = none); hung
//	              cells become retryable timeout failures
//	-retries N    re-attempts per cell after a retryable failure
//	              (panic, timeout, transient/injected fault)
//	-keepgoing    degraded mode: drain every cell, render what
//	              succeeded, print a run report; exit 3 on failures
//	-chaos SPEC   deterministic fault injection, e.g.
//	              seed=1,panic=0.1,hang=0.05,err=0.1,corrupt=0.02
//	              (also upto=K, cell=SUBSTR); the supervision test rig.
//	              worker and inproc refuse corrupt=: workers never write
//	              the result cache
//	-races        add the static race/deadlock analysis to lint and
//	              analyze reports (findings affect the exit code)
//	-checkraces   run the workload with the dynamic happens-before race
//	              detector attached and check every observed race
//	              against the static report (the subsumption invariant)
//	-checkelide   lint/analyze: add the provable runtime-check census;
//	              run: differential base-vs-elided execution with the
//	              dynamic check oracle attached (no elided check may fire)
//	-schedseed N  perturb scheduler slice lengths pseudo-randomly for
//	              `run` (0 = the fixed quantum; deterministic per seed)
//	-remote ADDR  submit the experiment grid to a `jrs serve`
//	              coordinator at ADDR instead of running locally; the
//	              relayed output is byte-identical to the local run and
//	              the remote exit code (0/1/2/3) is propagated. Local
//	              scheduler, cache and service flags (-parallel,
//	              -cachedir, -retries, -celltimeout, -keepgoing, -chaos,
//	              -codecache, -codecachedir and the service flags
//	              below) are rejected with exit 2: they belong to the
//	              coordinator and workers
//	-listen ADDR  serve: listen address (default 127.0.0.1:0; the bound
//	              address is printed to stderr)
//	-connect ADDR worker: coordinator address (required)
//	-name S       worker: stable worker identity (default host-pid)
//	-workers N    inproc: in-process worker count (default 3)
//	-lease D      serve, inproc: lease TTL before a silent worker's cell
//	              is re-queued (default 10s)
//	-netchaos SPEC worker, inproc: network fault injection
//	              (seed=N,drop=P,delay=P,dup=P,kill=P,maxdelay=D)
//	-v            serve, worker, inproc: log protocol progress to stderr
//	-json         emit lint/analyze reports as JSON instead of text
//	-cpuprofile F write a CPU profile to F
//	-memprofile F write a heap profile to F on exit
//
// serve, worker and inproc reject -codecache and -codecachedir: a warm
// translation cache would change a remote cell's translate/execute
// split away from a serial run's. worker rejects -cachedir, -retries
// and -keepgoing (the coordinator applies them), and serve rejects
// -celltimeout and -chaos (the workers apply them).
//
// Exit codes: 0 healthy, 1 run or connection error, 2 usage,
// 3 degraded (-keepgoing with failed cells).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"jrs/internal/classfile"
	"jrs/internal/core"
	"jrs/internal/harness"
	"jrs/internal/harness/chaos"
	"jrs/internal/harness/dist"
	"jrs/internal/jit/codecache"
	"jrs/internal/minijava"
	"jrs/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, executes the
// requested command writing reports to stdout and progress to stderr,
// and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("jrs", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 0, "workload input scale (0 = workload default)")
	quick := fs.Bool("quick", false, "use reduced benchmark scales")
	mode := fs.String("mode", "jit", "execution mode for `run`: interp, jit, aot, opt (a class bundle: interp, jit, aot)")
	wsel := fs.String("w", "", "comma-separated workload subset")
	parallel := fs.Int("parallel", 0, "simulation workers (0 = GOMAXPROCS, 1 = serial)")
	cachedir := fs.String("cachedir", "", "directory for the persistent result cache (empty = no cache)")
	codecacheOn := fs.Bool("codecache", false, "share one in-process JIT translation cache across all engines")
	codecachedir := fs.String("codecachedir", "", "persistent on-disk store for the shared translation cache (implies -codecache)")
	celltimeout := fs.Duration("celltimeout", 0, "watchdog deadline per cell attempt (0 = none)")
	retries := fs.Int("retries", 0, "re-attempts per cell after a retryable failure")
	keepgoing := fs.Bool("keepgoing", false, "drain all cells despite failures; report and exit 3")
	chaosSpec := fs.String("chaos", "", "deterministic fault-injection spec (seed=N,panic=P,hang=P,err=P,corrupt=P,upto=K,cell=S)")
	jsonOut := fs.Bool("json", false, "emit lint/analyze reports as JSON")
	checkpipe := fs.Bool("checkpipe", false, "attach the pipeline invariant checker to every superscalar core (debug; slower)")
	races := fs.Bool("races", false, "add the static race/deadlock analysis to lint and analyze reports")
	checkraces := fs.Bool("checkraces", false, "attach the dynamic vector-clock race detector to `run` and check its findings against the static report (debug; slower)")
	checkelide := fs.Bool("checkelide", false, "lint/analyze: add the provable runtime-check census; run: differential base-vs-elided execution under the dynamic check oracle")
	schedseed := fs.Uint64("schedseed", 0, "seed pseudo-random scheduler slice lengths for `run` (0 = fixed quantum)")
	remote := fs.String("remote", "", "submit the experiment grid to a `jrs serve` coordinator at this address instead of running locally")
	listen := fs.String("listen", "127.0.0.1:0", "serve: coordinator listen address")
	connect := fs.String("connect", "", "worker: coordinator address to connect to")
	name := fs.String("name", "", "worker: identity (default host-pid)")
	nworkers := fs.Int("workers", 3, "inproc: in-process worker count")
	lease := fs.Duration("lease", 10*time.Second, "serve, inproc: lease TTL before a silent worker's cell re-queues")
	netSpec := fs.String("netchaos", "", "worker, inproc: network fault-injection spec (seed=N,drop=P,delay=P,dup=P,kill=P,maxdelay=D)")
	verbose := fs.Bool("v", false, "serve, worker, inproc: log protocol progress to stderr")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	fs.Usage = func() { usage(fs, stderr) }
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}

	cmd := fs.Arg(0)
	service := cmd == "serve" || cmd == "worker" || cmd == "inproc"
	if *remote != "" {
		if name := firstSet(fs, localOnly); name != "" {
			fmt.Fprintf(stderr, "jrs: -%s has no effect with -remote (it is a coordinator or worker setting)\n", name)
			return 2
		}
	}
	if o, ok := ownedElsewhere[cmd]; ok {
		if name := firstSet(fs, o.flags); name != "" {
			fmt.Fprintf(stderr, "jrs: -%s has no effect on %s (it is a %s setting)\n", name, cmd, o.owner)
			return 2
		}
	}
	if service && (*codecacheOn || *codecachedir != "") {
		fmt.Fprintf(stderr, "jrs: -codecache and -codecachedir do not apply to %s: a warm translation cache would change remote cells' translate split\n", cmd)
		return 2
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "jrs: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "jrs: %v\n", err)
			}
		}()
	}

	opts := harness.Options{Scale: *scale, Quick: *quick, CheckPipe: *checkpipe, Races: *races, Checks: *checkelide}
	if *wsel != "" {
		for _, name := range strings.Split(*wsel, ",") {
			w, ok := workloads.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "jrs: unknown workload %q\n", name)
				return 2
			}
			opts.Workloads = append(opts.Workloads, w)
		}
	}

	if *remote != "" {
		switch cmd {
		case "", "list", "run", "lint", "analyze", "serve", "worker", "inproc":
			fmt.Fprintln(stderr, "jrs: -remote runs experiment grids only (an experiment name, or \"all\")")
			return 2
		}
		return submit(*remote, []string{cmd}, opts, stdout, stderr)
	}

	var cc *codecache.Cache
	if *codecacheOn || *codecachedir != "" {
		if *codecachedir != "" {
			var err error
			if cc, err = codecache.Open(*codecachedir); err != nil {
				fmt.Fprintf(stderr, "jrs: %v\n", err)
				return 1
			}
		} else {
			cc = codecache.NewMemory()
		}
		if *cachedir != "" {
			// Cached cell payloads bake in the phase split the cell saw
			// when it simulated; a warm translation cache changes that
			// split, so mixing the two caches can replay stale numbers.
			fmt.Fprintln(stderr, "jrs: warning: -codecache with -cachedir: cached cell results keep the translate/execute split of the run that produced them")
		}
		harness.SetCodeCache(cc)
		defer harness.SetCodeCache(nil)
		defer func() { fmt.Fprintf(stderr, "codecache: %s\n", cc.Stats()) }()
	}

	runner := &harness.Runner{
		Workers:     *parallel,
		CellTimeout: *celltimeout,
		Retries:     *retries,
		KeepGoing:   *keepgoing,
		BackoffBase: 100 * time.Millisecond,
		CodeCache:   cc,
	}
	if *chaosSpec != "" {
		spec, err := chaos.ParseSpec(*chaosSpec)
		if err == nil && spec.CorruptRate > 0 && (cmd == "worker" || cmd == "inproc") {
			err = errors.New("-chaos corrupt= is not supported: workers never write the result cache (use jrs -cachedir D -chaos corrupt=P)")
		}
		if err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return 2
		}
		runner.Chaos = chaos.New(spec)
	}
	var nets *chaos.NetInjector
	if *netSpec != "" {
		spec, err := chaos.ParseNetSpec(*netSpec)
		if err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return 2
		}
		nets = chaos.NewNet(spec)
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	}
	if cmd == "worker" {
		if *connect == "" {
			fmt.Fprintln(stderr, "jrs: worker requires -connect ADDR")
			return 2
		}
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
		defer cancel()
		if err := buildWorker(*name, *connect, runner, nets, 0, logf).Run(ctx); err != nil && ctx.Err() == nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return 1
		}
		return 0
	}
	if cmd == "inproc" && fs.NArg() < 2 {
		fmt.Fprintln(stderr, "jrs: inproc requires an experiment name (or \"all\")")
		return 2
	}
	if *cachedir != "" {
		cache, err := harness.OpenResultCache(*cachedir)
		if err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return 1
		}
		runner.Cache = cache
		// The run journal lives next to the cache: it records every
		// completed cell and locks the directory to this one writer.
		journal, err := harness.OpenJournal(filepath.Join(*cachedir, harness.JournalName))
		if err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return 1
		}
		defer journal.Close()
		runner.Journal = journal
	}
	runner.Progress = func(key harness.CellKey, cached bool) {
		tag := "sim"
		if cached {
			tag = "cache"
		}
		fmt.Fprintf(stderr, "  [%s] %s\n", tag, key)
	}

	switch cmd {
	case "serve":
		c := coordinator(runner, *lease, logf)
		addr, err := c.Start(*listen)
		if err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "jrs: coordinator listening on %s\n", addr)
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
		defer cancel()
		<-ctx.Done()
		c.Stop()

	case "inproc":
		return inproc(coordinator(runner, *lease, logf), *nworkers, runner, nets, logf, fs.Args()[1:], opts, stdout, stderr)

	case "list":
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range harness.Experiments() {
			fmt.Fprintf(stdout, "  %-17s %s\n", e.Name, e.Desc)
		}
		fmt.Fprintln(stdout, "\nworkloads:")
		for _, w := range workloads.All() {
			fmt.Fprintf(stdout, "  %-9s (default n=%d)  %s\n", w.Name, w.DefaultN, w.Desc)
		}

	case "all":
		out, err := harness.RunAllWith(opts, runner, func(e harness.Experiment) {
			fmt.Fprintf(stderr, "planning %s...\n", e.Name)
		})
		if err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "done: %d cells simulated, %d from cache\n",
			runner.Simulated(), runner.CacheHits())
		fmt.Fprint(stdout, out)
		return reportExit(runner, *keepgoing, stdout)

	case "run":
		if fs.NArg() < 2 {
			fmt.Fprintln(stderr, "jrs: run requires a workload name or a .jrsc class bundle")
			return 2
		}
		if _, ok := engineModes[*mode]; !ok && *mode != "opt" {
			fmt.Fprintf(stderr, "jrs: unknown mode %q\n", *mode)
			return 2
		}
		if strings.HasSuffix(fs.Arg(1), ".jrsc") {
			name := firstSet(fs, workloadOnly)
			if name == "" && *mode == "opt" {
				name = "mode opt"
			}
			if name != "" {
				fmt.Fprintf(stderr, "jrs: -%s does not apply to a class bundle (it needs a workload)\n", name)
				return 2
			}
			return runBundle(fs.Arg(1), engineModes[*mode], *schedseed, stdout, stderr)
		}
		return runWorkload(fs.Arg(1), *mode, opts, *checkraces, *checkelide, *schedseed, stdout, stderr)

	case "lint":
		return lint(fs.Args()[1:], opts, *jsonOut, stdout, stderr)

	case "analyze":
		return analyze(fs.Args()[1:], opts, runner, *jsonOut, stdout, stderr)

	default:
		exp, ok := harness.Lookup(cmd)
		if !ok {
			fmt.Fprintf(stderr, "jrs: unknown experiment %q\n\nregistered experiments:\n", cmd)
			for _, name := range harness.Names() {
				fmt.Fprintf(stderr, "  %s\n", name)
			}
			return 2
		}
		fmt.Fprintf(stderr, "running %s...\n", exp.Name)
		r, err := exp.RunWith(opts, runner)
		if err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, runner.SafeRender(r))
		return reportExit(runner, *keepgoing, stdout)
	}
	return 0
}

// localOnly names the flags that configure the local scheduler, caches,
// fault injection or the grid service; under -remote the coordinator and
// workers own those settings.
var localOnly = map[string]bool{
	"parallel": true, "cachedir": true, "retries": true, "celltimeout": true,
	"keepgoing": true, "chaos": true, "codecache": true,
	"codecachedir": true, "listen": true, "connect": true, "name": true,
	"workers": true, "lease": true, "netchaos": true, "v": true,
}

// ownedElsewhere names, for serve and worker, the flags the other side
// of the service owns: the coordinator applies the result cache, the
// retry budget and keep-going; the workers run the cell watchdog and
// fault injection.
var ownedElsewhere = map[string]struct {
	flags map[string]bool
	owner string
}{
	"worker": {map[string]bool{"cachedir": true, "retries": true, "keepgoing": true}, "coordinator (serve)"},
	"serve":  {map[string]bool{"celltimeout": true, "chaos": true}, "worker"},
}

// workloadOnly names the `run` flags that need a workload: its scale,
// its oracle profile (-mode opt) or its static analyses. A class bundle
// rejects them.
var workloadOnly = map[string]bool{
	"scale": true, "quick": true, "checkraces": true, "checkelide": true,
}

// firstSet returns the first flag of names set on the command line, or
// "".
func firstSet(fs *flag.FlagSet, names map[string]bool) (name string) {
	fs.Visit(func(f *flag.Flag) {
		if name == "" && names[f.Name] {
			name = f.Name
		}
	})
	return name
}

// submit sends an experiment grid to the coordinator at addr and
// relays its merged output — byte-identical to running the same grid
// locally — returning the remote exit code (0 healthy, 1 failed,
// 2 usage, 3 degraded keep-going run).
func submit(addr string, exps []string, opts harness.Options, stdout, stderr io.Writer) int {
	out, err := dist.Submit(addr, dist.GridSpec{Experiments: exps, Opts: dist.SpecOf(opts)}, 0)
	if err != nil {
		fmt.Fprintf(stderr, "jrs: %v\n", err)
		return 1
	}
	if out.ErrMsg != "" {
		fmt.Fprintf(stderr, "jrs: %s\n", out.ErrMsg)
	}
	fmt.Fprint(stdout, out.Output)
	fmt.Fprint(stdout, out.Report)
	return out.ExitCode
}

// coordinator builds a grid coordinator that applies the runner's
// retry, keep-going, cache and journal policy to leased cells.
// The coordinator owns the journal: Stop closes it.
func coordinator(runner *harness.Runner, lease time.Duration, logf func(string, ...any)) *dist.Coordinator {
	return dist.NewCoordinator(dist.Config{
		LeaseTTL:    lease,
		Retries:     runner.Retries,
		KeepGoing:   runner.KeepGoing,
		BackoffBase: runner.BackoffBase,
		Cache:       runner.Cache,
		Journal:     runner.Journal,
		Logf:        logf,
	})
}

// buildWorker assembles worker number index. Each index derives its own
// injector seeds from the runner's -chaos and the -netchaos injector
// (index 0 keeps them): identical injector state on every worker would
// fault the same cells in lockstep.
func buildWorker(name, addr string, runner *harness.Runner, nets *chaos.NetInjector, index int, logf func(string, ...any)) *dist.Worker {
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &dist.Worker{
		Name:        name,
		Dial:        func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 10*time.Second) },
		CellTimeout: runner.CellTimeout,
		Logf:        logf,
	}
	seed := int64(index) * 1000003
	if runner.Chaos != nil {
		spec := runner.Chaos.Spec()
		spec.Seed += seed
		w.Chaos = chaos.New(spec)
	}
	if nets != nil {
		spec := nets.Spec()
		spec.Seed += seed
		w.Net = chaos.NewNet(spec)
	}
	return w
}

// inproc runs the whole service in one process — coordinator c, n
// workers, one submitted grid — and prints the merged output: the
// loopback smoke CI diffs against a serial run.
func inproc(c *dist.Coordinator, n int, runner *harness.Runner, nets *chaos.NetInjector, logf func(string, ...any), exps []string, opts harness.Options, stdout, stderr io.Writer) int {
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(stderr, "jrs: %v\n", err)
		return 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < max(n, 1); i++ {
		w := buildWorker(fmt.Sprintf("w%d", i+1), addr, runner, nets, i, logf)
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx)
		}()
	}
	code := submit(addr, exps, opts, stdout, stderr)
	cancel()
	c.Stop()
	wg.Wait()
	return code
}

// reportExit finishes a supervised experiment command: in -keepgoing
// mode it appends the deterministic run report to stdout and converts
// "some cells failed" into exit code 3 (degraded but rendered), keeping
// 0 for a fully healthy run.
func reportExit(runner *harness.Runner, keepgoing bool, stdout io.Writer) int {
	if !keepgoing {
		return 0
	}
	rep := runner.Report()
	fmt.Fprint(stdout, rep.Render())
	if rep.Failed > 0 {
		return 3
	}
	return 0
}

// engineModes maps the -mode names that select one execution engine.
var engineModes = map[string]harness.Mode{
	"interp": harness.ModeInterp, "jit": harness.ModeJIT, "aot": harness.ModeAOT,
}

func runWorkload(name, modeName string, opts harness.Options, checkraces, checkelide bool, schedseed uint64, stdout, stderr io.Writer) int {
	w, ok := workloads.ByName(name)
	if !ok {
		fmt.Fprintf(stderr, "jrs: unknown workload %q\n", name)
		return 2
	}
	scale := opts.Scale
	if opts.Quick && scale == 0 {
		scale = w.BenchN
	}

	if checkraces {
		return checkRaces(w, scale, modeName, schedseed, stdout, stderr)
	}
	if checkelide {
		return checkElide(w, scale, modeName, stdout, stderr)
	}

	if modeName == "opt" {
		e, err := harness.RunOracleCtx(context.Background(), w, scale)
		return printRun(w.Name, modeName, e, err, stdout, stderr)
	}
	e, err := harness.RunCtx(context.Background(), w, scale, engineModes[modeName], core.Config{SchedSeed: schedseed})
	return printRun(w.Name, modeName, e, err, stdout, stderr)
}

// runBundle executes a class bundle written by cmd/mjc through the same
// harness path as a workload.
func runBundle(path string, mode harness.Mode, schedseed uint64, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintf(stderr, "jrs: %v\n", err)
		return 1
	}
	classes, err := classfile.Read(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(stderr, "jrs: %s: %v\n", path, err)
		return 1
	}
	name := filepath.Base(path)
	e, err := harness.RunClassesCtx(context.Background(), name, classes, mode, core.Config{SchedSeed: schedseed})
	return printRun(name, mode.String(), e, err, stdout, stderr)
}

// printRun prints a finished run's program output and its instruction
// summary line.
func printRun(name, modeName string, e *core.Engine, err error, stdout, stderr io.Writer) int {
	if err != nil {
		fmt.Fprintf(stderr, "jrs: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, e.VM.Out.String())
	exec, translate, load := e.PhaseInstrs()
	fmt.Fprintf(stdout, "\n[%s/%s] instructions: total=%d exec=%d translate=%d load=%d translations=%d footprint=%dKB\n",
		name, modeName, e.TotalInstrs(), exec, translate, load,
		e.JIT.Translations, e.FootprintBytes()>>10)
	return 0
}

// checkRaces executes the workload with the dynamic vector-clock race
// detector attached (jrs run -checkraces), reports what it observed,
// and fails when a dynamic race escapes the static report.
func checkRaces(w workloads.Workload, scale int, modeName string, schedseed uint64, stdout, stderr io.Writer) int {
	mode, ok := engineModes[modeName]
	if !ok {
		fmt.Fprintf(stderr, "jrs: -checkraces supports modes interp, jit, aot (got %q)\n", modeName)
		return 2 // usage error, like any bad flag combination
	}
	rc, err := harness.CheckRacesWorkload(context.Background(), w, scale, mode, schedseed)
	if err != nil {
		fmt.Fprintf(stderr, "jrs: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "[%s/%s] checkraces seed=%d: %d static race(s), %d deadlock cycle(s); %d dynamic race(s)\n",
		rc.Workload, rc.Mode, rc.Seed, len(rc.Static.Races), len(rc.Static.Deadlocks), len(rc.Dynamic))
	for _, d := range rc.Dynamic {
		fmt.Fprintf(stdout, "  %s\n", d)
	}
	if rc.Deadlocked {
		fmt.Fprintln(stdout, "  run deadlocked (no runnable threads)")
	}
	if err := rc.Err(); err != nil {
		fmt.Fprintf(stderr, "jrs: %v\n", err)
		return 1
	}
	return 0
}

// checkElide executes the workload twice under the mode — baseline,
// then with proven checks elided and the dynamic oracle attached (jrs
// run -checkelide) — and fails when outputs diverge or any elided check
// would have fired.
func checkElide(w workloads.Workload, scale int, modeName string, stdout, stderr io.Writer) int {
	mode, ok := engineModes[modeName]
	if !ok {
		fmt.Fprintf(stderr, "jrs: -checkelide supports modes interp, jit, aot (got %q)\n", modeName)
		return 2 // usage error, like any bad flag combination
	}
	ec, err := harness.CheckElideWorkload(context.Background(), w, scale, mode)
	if err != nil {
		fmt.Fprintf(stderr, "jrs: %v\n", err)
		return 1
	}
	c := ec.Census
	fmt.Fprintf(stdout, "[%s/%s] checkelide: %d/%d bounds site(s) proven, %d/%d null site(s) proven; %d check(s) run, %d elided, %d oracle validation(s)\n",
		ec.Workload, ec.Mode, c.BoundsProven, c.BoundsSites, c.NullProven, c.NullSites,
		ec.Checked, ec.Elided, ec.Runtime)
	for _, v := range ec.Violated {
		fmt.Fprintf(stdout, "  VIOLATION %s\n", v)
	}
	if err := ec.Err(); err != nil {
		fmt.Fprintf(stderr, "jrs: %v\n", err)
		return 1
	}
	return 0
}

// compilePrograms loads the named MiniJava sources, or every workload
// when no files are given.
func compilePrograms(files []string, opts harness.Options, stderr io.Writer) ([]harness.LintProgram, bool) {
	if len(files) == 0 {
		return harness.WorkloadPrograms(opts), true
	}
	var progs []harness.LintProgram
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return nil, false
		}
		classes, err := minijava.Compile(f, string(src))
		if err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return nil, false
		}
		progs = append(progs, harness.LintProgram{Name: f, Classes: classes})
	}
	return progs, true
}

// lint runs the analysis pass suite over the named MiniJava sources, or
// over every workload when no files are given, and prints the
// deterministic diagnostic report (text or JSON). Exit code 1 signals
// findings.
func lint(files []string, opts harness.Options, jsonOut bool, stdout, stderr io.Writer) int {
	progs, ok := compilePrograms(files, opts, stderr)
	if !ok {
		return 1
	}
	report, err := harness.BuildLintReport(progs, opts.Races, opts.Checks)
	if err != nil {
		fmt.Fprintf(stderr, "jrs: %v\n", err)
		return 1
	}
	out := report.Render()
	if jsonOut {
		if out, err = report.JSON(); err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return 1
		}
	}
	fmt.Fprint(stdout, out)
	if report.Findings > 0 {
		return 1
	}
	return 0
}

// analyze prints the whole-program interprocedural analysis report over
// the named MiniJava sources, or every workload when no files are given
// (the workload path runs on the -parallel worker pool).
func analyze(files []string, opts harness.Options, runner *harness.Runner, jsonOut bool, stdout, stderr io.Writer) int {
	var res *harness.AnalyzeResult
	var err error
	if len(files) == 0 {
		res, err = harness.AnalyzeWith(opts, runner)
	} else {
		var progs []harness.LintProgram
		var ok bool
		if progs, ok = compilePrograms(files, opts, stderr); !ok {
			return 1
		}
		res, err = harness.AnalyzePrograms(progs, opts.Races, opts.Checks)
	}
	if err != nil {
		fmt.Fprintf(stderr, "jrs: %v\n", err)
		return 1
	}
	out := res.Render()
	if jsonOut {
		if out, err = res.JSON(); err != nil {
			fmt.Fprintf(stderr, "jrs: %v\n", err)
			return 1
		}
	}
	fmt.Fprint(stdout, out)
	return 0
}

func usage(fs *flag.FlagSet, stderr io.Writer) {
	fmt.Fprintf(stderr, `jrs — architectural studies of Java runtime systems (HPCA 2000 reproduction)

usage:
  jrs [flags] list
  jrs [flags] <experiment>   e.g. fig1, table2, ablate-install
  jrs [flags] all
  jrs [flags] run <workload | prog.jrsc>
  jrs [flags] lint [file.mj ...]
  jrs [flags] analyze [file.mj ...]
  jrs [flags] serve                    grid coordinator (-listen ADDR)
  jrs [flags] -connect ADDR worker     grid worker
  jrs [flags] inproc <experiment|all>  loopback coordinator + -workers N + submit

flags:
`)
	fs.PrintDefaults()
}
