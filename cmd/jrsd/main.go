// Command jrsd is the distributed grid service for the paper
// experiments: a coordinator that leases simulation cells to workers
// over TCP and merges their results deterministically, and the worker
// that executes them. The merged output is byte-identical to a serial
// `jrs` run of the same grid — workers crashing, hanging, dropping
// connections or delivering duplicates along the way included.
//
// Usage:
//
//	jrsd serve  [flags]                 run a coordinator
//	jrsd worker [flags] -connect ADDR   run a worker against a coordinator
//	jrsd inproc [flags] <experiment|all>
//	                                    loopback smoke: coordinator + N
//	                                    in-process workers + one submit,
//	                                    output on stdout (CI's vehicle)
//
// Flags (shared unless noted):
//
//	-listen ADDR   serve: listen address (default 127.0.0.1:0; the bound
//	               address is printed to stderr)
//	-connect ADDR  worker: coordinator address (required)
//	-name S        worker: stable worker identity (default host-pid)
//	-workers N     inproc: in-process worker count (default 3)
//	-lease D       serve/inproc: lease TTL before a silent worker's cell
//	               is re-queued (default 10s)
//	-retries N     re-attempts per cell after a retryable failure
//	-keepgoing     degraded mode: drain every cell, render what
//	               succeeded, print a run report; exit 3 on failures
//	-cachedir D    persist per-cell results + run journal under D
//	-resume        trust the journal under -cachedir: journaled cells
//	               are served from the cache (continue a crashed run)
//	-celltimeout D worker/inproc: watchdog deadline per cell attempt
//	-chaos SPEC    worker/inproc: cell fault injection
//	               (seed=N,panic=P,hang=P,err=P,upto=K,cell=S; corrupt=
//	               is refused — workers never write the result cache)
//	-netchaos SPEC worker/inproc: network fault injection
//	               (seed=N,drop=P,delay=P,dup=P,kill=P,maxdelay=D)
//	-scale N, -quick, -w names, -checkpipe
//	               grid options, as in jrs (inproc submit)
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
	"strings"
	"time"

	"jrs/internal/harness"
	"jrs/internal/harness/chaos"
	"jrs/internal/harness/dist"
	"jrs/internal/workloads"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		usage(stderr)
		return 2
	}
	cmd, args := args[0], args[1:]

	fs := flag.NewFlagSet("jrsd "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "127.0.0.1:0", "coordinator listen address")
	connect := fs.String("connect", "", "coordinator address to connect to (worker)")
	name := fs.String("name", "", "worker identity (default host-pid)")
	nworkers := fs.Int("workers", 3, "in-process worker count (inproc)")
	lease := fs.Duration("lease", 10*time.Second, "lease TTL before a silent worker's cell re-queues")
	retries := fs.Int("retries", 0, "re-attempts per cell after a retryable failure")
	keepgoing := fs.Bool("keepgoing", false, "drain all cells despite failures; report and exit 3")
	cachedir := fs.String("cachedir", "", "directory for the persistent result cache and journal")
	resume := fs.Bool("resume", false, "resume an interrupted run from the -cachedir journal")
	celltimeout := fs.Duration("celltimeout", 0, "watchdog deadline per cell attempt (0 = none)")
	chaosSpec := fs.String("chaos", "", "cell fault-injection spec (worker side)")
	netSpec := fs.String("netchaos", "", "network fault-injection spec (worker side)")
	scale := fs.Int("scale", 0, "workload input scale (0 = workload default)")
	quick := fs.Bool("quick", false, "use reduced benchmark scales")
	wsel := fs.String("w", "", "comma-separated workload subset")
	checkpipe := fs.Bool("checkpipe", false, "attach the pipeline invariant checker to every superscalar core")
	verbose := fs.Bool("v", false, "log protocol progress to stderr")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) { fmt.Fprintf(stderr, format+"\n", a...) }
	}

	switch cmd {
	case "serve":
		return serve(coordConfig{
			lease: *lease, retries: *retries, keepgoing: *keepgoing,
			cachedir: *cachedir, resume: *resume, logf: logf,
		}, *listen, stderr)

	case "worker":
		if *connect == "" {
			fmt.Fprintln(stderr, "jrsd: worker requires -connect ADDR")
			return 2
		}
		cell, nets, code := parseChaos(*chaosSpec, *netSpec, stderr)
		if code != 0 {
			return code
		}
		w := buildWorker(*name, *connect, *celltimeout, cell, nets, 0, logf)
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
		defer cancel()
		w.Run(ctx)
		return 0

	case "inproc":
		if fs.NArg() < 1 {
			fmt.Fprintln(stderr, "jrsd: inproc requires an experiment name (or \"all\")")
			return 2
		}
		opts, code := gridOptions(*scale, *quick, *checkpipe, *wsel, stderr)
		if code != 0 {
			return code
		}
		cell, nets, code := parseChaos(*chaosSpec, *netSpec, stderr)
		if code != 0 {
			return code
		}
		return inproc(coordConfig{
			lease: *lease, retries: *retries, keepgoing: *keepgoing,
			cachedir: *cachedir, resume: *resume, logf: logf,
		}, *nworkers, *celltimeout, cell, nets,
			dist.GridSpec{Experiments: fs.Args(), Opts: opts},
			stdout, stderr)

	default:
		fmt.Fprintf(stderr, "jrsd: unknown command %q\n", cmd)
		usage(stderr)
		return 2
	}
}

// coordConfig is the flag subset that parameterizes a coordinator.
type coordConfig struct {
	lease     time.Duration
	retries   int
	keepgoing bool
	cachedir  string
	resume    bool
	logf      func(string, ...any)
}

// newCoordinator wires cache + journal (when -cachedir is set) into a
// coordinator. The coordinator owns the journal: Stop releases its
// writer lock.
func newCoordinator(cc coordConfig, stderr io.Writer) (*dist.Coordinator, int) {
	cfg := dist.Config{
		LeaseTTL:    cc.lease,
		Retries:     cc.retries,
		KeepGoing:   cc.keepgoing,
		BackoffBase: 100 * time.Millisecond,
		Resume:      cc.resume,
		Logf:        cc.logf,
	}
	if cc.resume && cc.cachedir == "" {
		fmt.Fprintln(stderr, "jrsd: -resume requires -cachedir (the journal lives there)")
		return nil, 2
	}
	if cc.cachedir != "" {
		cache, err := harness.OpenResultCache(cc.cachedir)
		if err != nil {
			fmt.Fprintf(stderr, "jrsd: %v\n", err)
			return nil, 1
		}
		journal, err := harness.OpenJournal(filepath.Join(cc.cachedir, harness.JournalName))
		if err != nil {
			fmt.Fprintf(stderr, "jrsd: %v\n", err)
			return nil, 1
		}
		cfg.Cache, cfg.Journal = cache, journal
	}
	return dist.NewCoordinator(cfg), 0
}

// serve runs a standalone coordinator until interrupted.
func serve(cc coordConfig, listen string, stderr io.Writer) int {
	c, code := newCoordinator(cc, stderr)
	if code != 0 {
		return code
	}
	addr, err := c.Start(listen)
	if err != nil {
		fmt.Fprintf(stderr, "jrsd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "jrsd: coordinator listening on %s\n", addr)
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	<-ctx.Done()
	c.Stop()
	return 0
}

// parseChaos validates the -chaos and -netchaos specs once (nil = no
// injection). Cache corruption is refused: jrsd workers never write the
// result cache — the coordinator commits every payload — so corrupt=
// would silently inject nothing.
func parseChaos(cellSpec, netSpec string, stderr io.Writer) (*chaos.Spec, *chaos.NetSpec, int) {
	var cell *chaos.Spec
	var nets *chaos.NetSpec
	if cellSpec != "" {
		spec, err := chaos.ParseSpec(cellSpec)
		if err == nil && spec.CorruptRate > 0 {
			err = errors.New("-chaos corrupt= is not supported: jrsd workers never write the result cache (use jrs -cachedir -chaos corrupt=P)")
		}
		if err != nil {
			fmt.Fprintf(stderr, "jrsd: %v\n", err)
			return nil, nil, 2
		}
		cell = &spec
	}
	if netSpec != "" {
		spec, err := chaos.ParseNetSpec(netSpec)
		if err != nil {
			fmt.Fprintf(stderr, "jrsd: %v\n", err)
			return nil, nil, 2
		}
		nets = &spec
	}
	return cell, nets, 0
}

// buildWorker assembles worker number index from its flags. Each index
// derives its own injector seeds from the validated specs (index 0 keeps
// them): identical injector state on every worker would fault the same
// cells in lockstep.
func buildWorker(name, connect string, celltimeout time.Duration, cell *chaos.Spec, nets *chaos.NetSpec, index int, logf func(string, ...any)) *dist.Worker {
	if name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &dist.Worker{
		Name:        name,
		Dial:        func() (net.Conn, error) { return net.DialTimeout("tcp", connect, 10*time.Second) },
		CellTimeout: celltimeout,
		Logf:        logf,
	}
	seed := int64(index) * 1000003
	if cell != nil {
		spec := *cell
		spec.Seed += seed
		w.Chaos = chaos.New(spec)
	}
	if nets != nil {
		spec := *nets
		spec.Seed += seed
		w.Net = chaos.NewNet(spec)
	}
	return w
}

// gridOptions assembles the submitted grid's option spec.
func gridOptions(scale int, quick, checkpipe bool, wsel string, stderr io.Writer) (dist.OptionsSpec, int) {
	opts := dist.OptionsSpec{Scale: scale, Quick: quick, CheckPipe: checkpipe}
	if wsel != "" {
		for _, name := range strings.Split(wsel, ",") {
			name = strings.TrimSpace(name)
			if _, ok := workloads.ByName(name); !ok {
				fmt.Fprintf(stderr, "jrsd: unknown workload %q\n", name)
				return opts, 1
			}
			opts.Workloads = append(opts.Workloads, name)
		}
	}
	return opts, 0
}

// inproc runs the whole service in one process — coordinator, N
// workers, one submitted grid — and prints the merged output. It is the
// loopback smoke CI diffs against a serial jrs run; every worker gets
// its own chaos injectors (see buildWorker).
func inproc(cc coordConfig, nworkers int, celltimeout time.Duration, cell *chaos.Spec, nets *chaos.NetSpec, grid dist.GridSpec, stdout, stderr io.Writer) int {
	if nworkers < 1 {
		nworkers = 1
	}
	c, code := newCoordinator(cc, stderr)
	if code != 0 {
		return code
	}
	addr, err := c.Start("127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(stderr, "jrsd: %v\n", err)
		return 1
	}
	defer c.Stop()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < nworkers; i++ {
		go buildWorker(fmt.Sprintf("w%d", i+1), addr, celltimeout, cell, nets, i, cc.logf).Run(ctx)
	}

	out, err := dist.Submit(addr, grid, 0)
	if err != nil {
		fmt.Fprintf(stderr, "jrsd: %v\n", err)
		return 1
	}
	if out.ErrMsg != "" {
		fmt.Fprintf(stderr, "jrsd: %s\n", out.ErrMsg)
	}
	fmt.Fprint(stdout, out.Output)
	fmt.Fprint(stdout, out.Report)
	return out.ExitCode
}

func usage(stderr io.Writer) {
	fmt.Fprint(stderr, `jrsd — fault-tolerant distributed grid execution for the jrs experiments

usage:
  jrsd serve  [flags]                   coordinator
  jrsd worker [flags] -connect ADDR     worker
  jrsd inproc [flags] <experiment|all>  loopback smoke (coordinator + workers + submit)

run "jrsd <command> -h" for flags.
`)
}
