package core

import (
	"errors"
	"fmt"

	"jrs/internal/analysis/ipa"
	"jrs/internal/analysis/vrange"
	"jrs/internal/bytecode"
	"jrs/internal/emit"
	"jrs/internal/interp"
	"jrs/internal/jit"
	"jrs/internal/jit/codecache"
	"jrs/internal/mem"
	"jrs/internal/monitor"
	"jrs/internal/native"
	"jrs/internal/rt"
	"jrs/internal/trace"
	"jrs/internal/vm"
)

// MethodStats is the engine's per-method cost record — the inputs of the
// §3 crossover analysis.
type MethodStats struct {
	// Invocations is n_i.
	Invocations uint64
	// InterpInstrs / InterpRuns accumulate self instruction counts (and
	// completed invocations) while interpreted: I_i = InterpInstrs /
	// InterpRuns.
	InterpInstrs uint64
	InterpRuns   uint64
	// ExecInstrs / ExecRuns accumulate self costs of translated-code
	// execution: E_i = ExecInstrs / ExecRuns.
	ExecInstrs uint64
	ExecRuns   uint64
	// TranslateInstrs is T_i (nonzero only once the method compiles).
	TranslateInstrs uint64
}

// InterpAvg returns I_i, the mean self interpret cost per invocation.
func (s MethodStats) InterpAvg() float64 {
	if s.InterpRuns == 0 {
		return 0
	}
	return float64(s.InterpInstrs) / float64(s.InterpRuns)
}

// ExecAvg returns E_i, the mean self native-execution cost.
func (s MethodStats) ExecAvg() float64 {
	if s.ExecRuns == 0 {
		return 0
	}
	return float64(s.ExecInstrs) / float64(s.ExecRuns)
}

// Config assembles an engine.
type Config struct {
	// Sink receives the full native trace (nil = discard), in
	// trace.BatchSize batches. Batch boundaries never change simulated
	// outcomes — only how often the downstream sinks are dispatched.
	Sink trace.Sink
	// Policy is the translate decision (default CompileFirst).
	Policy Policy
	// JITOptions tunes the compiler.
	JITOptions jit.Options
	// CodeCache, when non-nil, attaches the shared translation cache:
	// the JIT content-addresses each method (bytecode, options, Facts
	// fingerprint, pool-resolution environment) and installs an already-
	// translated body on a hit instead of running the generator, so
	// engines sharing one cache — cells of a parallel grid, or runs
	// sharing a disk-backed cache — translate each distinct method once.
	// Program output is unaffected; translate-phase instruction counts
	// shrink to the constant probe-and-relink cost on hits. Default nil:
	// every engine translates privately, all baseline metrics untouched.
	CodeCache *codecache.Cache
	// Monitors builds the synchronization manager (default thin locks).
	Monitors func(*emit.Emitter) monitor.Manager
	// Quantum is the scheduler slice in bytecodes (interpreter) and
	// 8x that in native instructions. Default 4096.
	Quantum int
	// Verify selects the class-load verification level (default
	// vm.VerifyFull: structural checks plus the full analysis passes).
	Verify vm.VerifyLevel
	// Devirt enables whole-program devirtualization: before the first
	// run (or precompile), internal/analysis/ipa builds an RTA call
	// graph and the JIT binds provably single-target virtual sites to
	// direct calls instead of vtable-indexed indirect jumps (§4.2).
	// Default off so baseline metrics stay untouched.
	Devirt bool
	// ElideLocks enables escape-analysis lock elision (§5): virtual
	// call sites whose receiver is provably thread-local and whose
	// unique target is synchronized are rebound to an unsynchronized
	// clone, and monitorenter/monitorexit on thread-local objects is
	// rewritten away, before internal/monitor sees any of it.
	// Default off.
	ElideLocks bool
	// ElideBounds enables sound bounds-check elimination: before the
	// first run, internal/analysis/vrange proves per-site index ranges
	// and the engines skip the bounds check at proven sites only —
	// interpreter template and JIT code generation both shrink.
	// Default off so baseline metrics stay untouched.
	ElideBounds bool
	// ElideNull enables sound null-check elimination at getfield/
	// putfield/arraylength/invoke-receiver/monitorenter/-exit sites the
	// vrange analysis proves non-null. Default off.
	ElideNull bool
	// CheckHook, when non-nil, observes every elided check as it
	// executes with a re-validated verdict (jrs -checkelide attaches
	// the vrange.CheckOracle here to pin the subsumption invariant:
	// no elided check may ever fire).
	CheckHook vm.CheckHook
	// RaceHook, when non-nil, receives allocation, memory-access and
	// synchronization events for dynamic race detection (jrs
	// -checkraces). The engine announces thread switches and the
	// spawn/join/exit happens-before edges; the VM delivers the rest.
	RaceHook vm.RaceHook
	// SchedSeed, when nonzero, perturbs each scheduler slice's quantum
	// pseudo-randomly (deterministically per seed), exploring different
	// interleavings of the same program. Zero keeps the fixed Quantum,
	// so existing goldens are byte-stable.
	SchedSeed uint64
	// Cancel, when non-nil, is polled cooperatively on the
	// instruction-budget path: once per scheduler slice by the engine,
	// at slice entry by the interpreter and the native CPU, and at
	// translation entry by the JIT. A non-nil return aborts the run
	// with a CancelError wrapping the returned cause — the hook a
	// harness watchdog uses to turn a hung simulation into an error
	// (pass func() error { return ctx.Err() }). Nil means never cancel
	// and costs one predictable branch per slice.
	Cancel func() error
}

// Engine is the mixed-mode runtime: VM + interpreter + JIT + native CPU
// under one scheduler/trampoline.
type Engine struct {
	VM     *vm.VM
	Interp *interp.Interp
	JIT    *jit.Compiler
	CPU    *native.CPU
	Policy Policy
	// Clock counts every emitted instruction and splits it by class and
	// phase — the run's time base and the Figure 1/2 source. It sits
	// downstream of the batch transport and so lags by the buffered
	// instructions mid-run; now() compensates with Batch.Pending(), and
	// every run-level summary reads it after the end-of-run flush.
	Clock *trace.Counter
	// Batch is the engine's trace transport: all emitters share this
	// buffer and Config.Sink receives whole batches from it. The engine
	// flushes it at every observation boundary (end of run, precompile
	// completion); harnesses swapping sinks mid-run must FlushTrace
	// first.
	Batch   *trace.Batcher
	Quantum int

	// Stats is indexed by method id after Load.
	Stats []MethodStats
	// VirtualCalls / DevirtCalls count dynamic virtual call sites taken
	// (engine-level, both modes).
	VirtualCalls uint64

	// IPA holds the whole-program analysis result once prepare has run
	// (nil when both knobs are off). ElidedSyncSites and
	// ElidedMonitorOps count the static rewrites lock elision applied.
	IPA              *ipa.Result
	ElidedSyncSites  int
	ElidedMonitorOps int
	// VRange holds the value-range/nullness analysis result once prepare
	// has run with ElideBounds or ElideNull set (nil otherwise).
	VRange *vrange.Result

	devirt      bool
	elideLocks  bool
	elideBounds bool
	elideNull   bool
	prepared    bool
	cancel      func() error
	schedSeed   uint64
	sliceCount  uint64

	ctxs []*threadCtx
}

// frameEntry is one stack frame owned by the trampoline: exactly one of
// iframe (interpreted) or act (native) is set.
type frameEntry struct {
	m      *bytecode.Method
	iframe *interp.Frame
	act    *native.Activation
	// syncObj is the monitor the engine took at invocation (synchronized
	// methods).
	syncObj uint64
}

func (fe *frameEntry) mark() *uint64 {
	if fe.iframe != nil {
		return &fe.iframe.Mark
	}
	return &fe.act.Mark
}

func (fe *frameEntry) self() *uint64 {
	if fe.iframe != nil {
		return &fe.iframe.Self
	}
	return &fe.act.Self
}

// pendingInvoke is an invocation that could not start (blocked on a
// synchronized method's monitor, or a spawned thread's initial call).
type pendingInvoke struct {
	m    *bytecode.Method
	args []int64
}

type threadCtx struct {
	t       *vm.Thread
	frames  []*frameEntry
	pending *pendingInvoke
}

// New builds an engine per cfg. Load program classes via e.VM.Load, then
// call Run.
func New(cfg Config) *Engine {
	if cfg.Policy == nil {
		cfg.Policy = CompileFirst{}
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 4096
	}
	if cfg.JITOptions.MaxStackRegs == 0 {
		cfg.JITOptions = jit.DefaultOptions()
	}
	clock := &trace.Counter{}
	batch := trace.NewBatcher(trace.Tee(clock, cfg.Sink), 0)
	v := vm.New(batch, cfg.Monitors)
	v.Verify = cfg.Verify
	e := &Engine{
		VM:          v,
		Policy:      cfg.Policy,
		Clock:       clock,
		Batch:       batch,
		Quantum:     cfg.Quantum,
		devirt:      cfg.Devirt,
		elideLocks:  cfg.ElideLocks,
		elideBounds: cfg.ElideBounds,
		elideNull:   cfg.ElideNull,
		cancel:      cfg.Cancel,
		schedSeed:   cfg.SchedSeed,
	}
	if cfg.RaceHook != nil {
		v.SetRaceHook(cfg.RaceHook)
	}
	// Elision knobs and the oracle hook land on the VM now; the proofs
	// themselves (v.Checks) arrive when prepare runs the analysis.
	v.ElideBounds = cfg.ElideBounds
	v.ElideNull = cfg.ElideNull
	v.CheckWatch = cfg.CheckHook
	e.Interp = interp.New(v)
	e.JIT = jit.New(v, cfg.JITOptions)
	e.JIT.Cache = cfg.CodeCache
	e.CPU = native.New(v)
	// The sub-engines share the cancellation hook so a pending cancel
	// ends a slice before its budget is spent, not after.
	e.Interp.Cancel = cfg.Cancel
	e.CPU.Cancel = cfg.Cancel
	e.JIT.Cancel = cfg.Cancel
	return e
}

// CancelError reports a run aborted by the Config.Cancel hook; Cause is
// the hook's return (context.DeadlineExceeded under a watchdog timeout).
type CancelError struct{ Cause error }

func (e *CancelError) Error() string { return "run canceled: " + e.Cause.Error() }
func (e *CancelError) Unwrap() error { return e.Cause }

// checkCancel polls the cancellation hook.
func (e *Engine) checkCancel() error {
	if e.cancel == nil {
		return nil
	}
	if cause := e.cancel(); cause != nil {
		return &CancelError{Cause: cause}
	}
	return nil
}

// now returns the global instruction clock: the flushed total plus the
// instructions still buffered in the transport, so the per-method cost
// accounting sees the exact count regardless of batch boundaries.
func (e *Engine) now() uint64 { return e.Clock.Total + uint64(e.Batch.Pending()) }

// FlushTrace delivers any instructions still buffered in the trace
// transport to the configured sink. Run and PrecompileAll flush on
// completion; callers that swap sinks mid-run (trace.Switchable) or
// inspect sink state between engine phases must flush first so the
// observation boundary is exact.
func (e *Engine) FlushTrace() { e.Batch.Flush() }

func (e *Engine) stat(m *bytecode.Method) *MethodStats {
	for len(e.Stats) <= m.ID {
		e.Stats = append(e.Stats, MethodStats{})
	}
	return &e.Stats[m.ID]
}

// Run executes the program from entry until all threads finish.
func (e *Engine) Run(entry *bytecode.Method) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ve, ok := r.(*vm.Error); ok {
				err = ve
				return
			}
			panic(r)
		}
	}()
	// End-of-run flush: the last partial batch reaches the sinks before
	// any caller reads their state (runs LIFO-first, before the recover
	// above, so error paths deliver their partial trace too).
	defer e.FlushTrace()

	if len(entry.Sig.Params) != 0 || !entry.IsStatic() {
		return fmt.Errorf("entry %s must be a static niladic method", entry.FullName())
	}
	e.prepare()
	e.Stats = make([]MethodStats, len(e.VM.MethodByID))

	t := e.VM.NewThread(nil, 0)
	tc := &threadCtx{t: t, pending: &pendingInvoke{m: entry}}
	e.ctxs = append(e.ctxs, tc)

	for {
		// Cooperative cancellation: one poll per scheduler pass. Slices
		// are budget-bounded (Quantum bytecodes / 8x native), so every
		// execution path — including a workload spinning forever —
		// returns here within a bounded instruction count.
		if err := e.checkCancel(); err != nil {
			return err
		}
		ran := false
		done := true
		for i := 0; i < len(e.ctxs); i++ {
			tc := e.ctxs[i]
			if tc.t.State != vm.ThreadRunnable {
				if tc.t.State != vm.ThreadDone {
					done = false
				}
				continue
			}
			done = false
			ran = true
			e.runSlice(tc)
		}
		if done {
			return nil
		}
		if !ran {
			return errors.New("deadlock: no runnable threads")
		}
	}
}

// runSlice runs one scheduler quantum of tc. A thread keeps executing
// across method calls and returns within its slice; only quantum expiry,
// an explicit yield (monitorexit, Sys.yield), blocking, or completion
// hand the processor over — the behaviour of a real green-thread
// scheduler, and what keeps synchronized critical sections from being
// preempted at every call boundary.
func (e *Engine) runSlice(tc *threadCtx) {
	if e.VM.Race != nil {
		e.VM.Race.SetThread(tc.t.ID)
	}
	if tc.pending != nil {
		p := tc.pending
		tc.pending = nil
		if !e.startInvoke(tc, p.m, p.args) {
			return // blocked again
		}
	}

	q := e.sliceQuantum(tc.t.ID)

	// The transition budget bounds trampoline work per slice so deep
	// call chains still share the processor.
	for transitions := 0; transitions < 256; transitions++ {
		if tc.t.State != vm.ThreadRunnable {
			return
		}
		if len(tc.frames) == 0 {
			e.finishThread(tc)
			return
		}
		fe := tc.frames[len(tc.frames)-1]
		*fe.mark() = e.now()
		var tr rt.Trap
		if fe.iframe != nil {
			tr = e.Interp.Run(tc.t, fe.iframe, q)
		} else {
			tr = e.CPU.Run(tc.t, fe.act, q*8)
		}
		e.handleTrap(tc, fe, tr)
		if tr.Kind == rt.TrapNone || tr.Kind == rt.TrapYield {
			return // quantum expired or voluntary yield
		}
	}
}

// sliceQuantum returns the bytecode budget of the next slice of thread
// tid: the fixed Quantum, or (seeded) a deterministic pseudo-random
// length in [1, Quantum] that varies per thread and slice, perturbing
// preemption points to explore interleavings.
func (e *Engine) sliceQuantum(tid int) int {
	if e.schedSeed == 0 {
		return e.Quantum
	}
	e.sliceCount++
	h := splitmix64(e.schedSeed ^ uint64(tid)*0x9e3779b97f4a7c15 ^ e.sliceCount*0xd1342543de82ef95)
	return 1 + int(h%uint64(e.Quantum))
}

// splitmix64 is the standard 64-bit finalizing mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// suspend charges elapsed self time to fe.
func (e *Engine) suspend(fe *frameEntry) {
	*fe.self() += e.now() - *fe.mark()
	*fe.mark() = e.now()
}

func (e *Engine) handleTrap(tc *threadCtx, fe *frameEntry, tr rt.Trap) {
	switch tr.Kind {
	case rt.TrapNone, rt.TrapYield:
		e.suspend(fe)
		if tr.Obj != 0 {
			e.VM.WakeWaiters(tr.Obj)
		}

	case rt.TrapCall:
		e.suspend(fe)
		args := tr.Args
		if fe.act != nil {
			args = native.ReadArgs(fe.act, tr.Target)
		}
		if tr.Virtual {
			e.VirtualCalls++
		}
		if !e.startInvoke(tc, tr.Target, args) {
			return // blocked at synchronized entry; pending recorded
		}

	case rt.TrapReturn:
		e.finishReturn(tc, fe, tr)

	case rt.TrapBlock:
		e.suspend(fe)
		tc.t.State = vm.ThreadBlocked
		tc.t.BlockedOn = tr.Obj

	case rt.TrapSpawn:
		e.suspend(fe)
		tid := e.spawn(uint64(tr.Args[0]))
		if e.VM.Race != nil {
			e.VM.Race.OnSpawn(tc.t.ID, tid)
		}
		e.deliver(fe, bytecode.TInt, int64(tid))

	case rt.TrapJoin:
		e.suspend(fe)
		id := int(tr.Args[0])
		target := e.VM.ThreadByID(id)
		if target == nil {
			vm.Throwf("IllegalArgument", "join on unknown thread %d", id)
		}
		if target.State != vm.ThreadDone {
			tc.t.State = vm.ThreadJoining
			tc.t.JoinOn = id
		} else if e.VM.Race != nil {
			// Joining an already-finished thread still orders its whole
			// execution before the joiner's continuation.
			e.VM.Race.OnJoined(tc.t.ID, id)
		}

	default:
		vm.Throwf("InternalError", "unhandled trap %v", tr.Kind)
	}
}

// startInvoke begins executing m with args on tc. It returns false if the
// thread blocked on a synchronized method's monitor (a pendingInvoke is
// recorded for retry).
func (e *Engine) startInvoke(tc *threadCtx, m *bytecode.Method, args []int64) bool {
	v := e.VM

	// Synchronized entry: take the receiver's (or class object's)
	// monitor before the frame exists.
	var syncObj uint64
	if m.IsSynchronized() {
		if m.IsStatic() {
			syncObj = v.ClassObject(m.Class)
		} else {
			syncObj = uint64(args[0])
		}
		if !v.LockObject(tc.t.ID, syncObj) {
			tc.pending = &pendingInvoke{m: m, args: args}
			tc.t.State = vm.ThreadBlocked
			tc.t.BlockedOn = syncObj
			return false
		}
	}

	st := e.stat(m)
	st.Invocations++

	// Translate decision.
	cm := e.JIT.Lookup(m)
	if cm == nil && e.Policy.ShouldCompile(m, st.Invocations) {
		if _, failed := e.JIT.Failed[m.ID]; !failed {
			t0 := e.now()
			compiled, err := e.JIT.Compile(m)
			st.TranslateInstrs += e.now() - t0
			if err == nil {
				cm = compiled
			}
		}
	}
	// Tier-2 reoptimization (profile-triggered recompile, §7 extension).
	if cm != nil && cm.Tier == 1 {
		if tp, ok := e.Policy.(TieredPolicy); ok && tp.ShouldOptimize(m, st.Invocations) {
			t0 := e.now()
			if better, err := e.JIT.Optimize(m); err == nil {
				cm = better
			}
			st.TranslateInstrs += e.now() - t0
		}
	}

	// Push the frame.
	start := e.now()
	fe := &frameEntry{m: m, syncObj: syncObj}
	if cm != nil {
		fe.act = native.NewActivation(tc.t, cm, args, e.returnAddrFor(tc))
		fe.act.SyncObj = syncObj
		fe.act.Mark = start
	} else {
		fe.iframe = e.Interp.NewFrame(tc.t, m, args)
		fe.iframe.SyncObj = syncObj
		fe.iframe.Mark = start
	}
	tc.t.NoteStack()
	tc.frames = append(tc.frames, fe)
	return true
}

// returnAddrFor computes the trace-level return address for a new native
// activation: the caller's resume PC.
func (e *Engine) returnAddrFor(tc *threadCtx) uint64 {
	if len(tc.frames) == 0 {
		return 0
	}
	parent := tc.frames[len(tc.frames)-1]
	if parent.act != nil {
		return parent.act.C.AddrOf(parent.act.PC)
	}
	return mem.HandlerBase
}

// finishReturn pops fe and delivers the value to the caller.
func (e *Engine) finishReturn(tc *threadCtx, fe *frameEntry, tr rt.Trap) {
	v := e.VM
	if fe.syncObj != 0 {
		v.UnlockObject(tc.t.ID, fe.syncObj)
		v.WakeWaiters(fe.syncObj)
	}
	e.suspend(fe)

	// Record self time.
	st := e.stat(fe.m)
	if fe.iframe != nil {
		st.InterpInstrs += fe.iframe.Self
		st.InterpRuns++
		e.Interp.PopFrame(tc.t, fe.iframe)
	} else {
		st.ExecInstrs += fe.act.Self
		st.ExecRuns++
		fe.act.Release(tc.t)
	}

	tc.frames = tc.frames[:len(tc.frames)-1]
	if len(tc.frames) == 0 {
		e.finishThread(tc)
		return
	}
	parent := tc.frames[len(tc.frames)-1]
	if tr.HasVal {
		e.deliver(parent, fe.m.Sig.Ret, tr.Val)
	}
	*parent.mark() = e.now()
}

// deliver pushes a result into a frame per its engine kind.
func (e *Engine) deliver(fe *frameEntry, t bytecode.Type, val int64) {
	if fe.iframe != nil {
		e.Interp.Push(fe.iframe, val)
	} else {
		native.SetResult(fe.act, t, val)
	}
}

// finishThread marks tc done and wakes joiners.
func (e *Engine) finishThread(tc *threadCtx) {
	tc.t.State = vm.ThreadDone
	if e.VM.Race != nil {
		// Snapshot the final clock before any joiner inherits it.
		e.VM.Race.OnThreadExit(tc.t.ID)
	}
	e.VM.WakeJoiners(tc.t.ID)
}

// spawn starts a new thread running obj's run() method.
func (e *Engine) spawn(obj uint64) int {
	v := e.VM
	v.CheckNull(obj)
	cls := v.ClassOf(obj)
	if cls == nil {
		vm.Throwf("IllegalArgument", "spawn on array reference")
	}
	var run *bytecode.Method
	for _, m := range cls.VTable {
		if m.Name == "run" && len(m.Sig.Params) == 0 && m.Sig.Ret == bytecode.TVoid {
			run = m
			break
		}
	}
	if run == nil {
		vm.Throwf("IllegalArgument", "spawn: %s has no run()V", cls.Name)
	}
	t := v.NewThread(run, obj)
	e.ctxs = append(e.ctxs, &threadCtx{
		t:       t,
		pending: &pendingInvoke{m: run, args: []int64{int64(obj)}},
	})
	return t.ID
}

// PrecompileAll translates every loaded method up front (ahead-of-time
// compilation). Combined with a trace.Switchable sink left disconnected
// during this call, it produces the paper's C/C++-like comparator: a
// fully compiled program whose measured trace contains no translation or
// loading activity.
func (e *Engine) PrecompileAll() error {
	// Mode-switch flush: everything precompilation emits must reach (and
	// be dropped or observed by) the *current* sink destination before
	// the harness swaps a Switchable to the measured simulators.
	defer e.FlushTrace()
	e.prepare()
	for _, m := range e.VM.MethodByID {
		if m.Class != nil && m.Class.Name == "Sys" {
			continue
		}
		if err := e.checkCancel(); err != nil {
			return err
		}
		if _, err := e.JIT.Compile(m); err != nil {
			return fmt.Errorf("precompile %s: %w", m.FullName(), err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Run-level summaries.

// PhaseInstrs returns the instruction counts charged to execution,
// translation and loading (the Figure 1 decomposition).
func (e *Engine) PhaseInstrs() (exec, translate, load uint64) {
	return e.Clock.ByPhase(trace.PhaseExec),
		e.Clock.ByPhase(trace.PhaseTranslate),
		e.Clock.ByPhase(trace.PhaseLoad)
}

// TotalInstrs returns the run's total instruction count.
func (e *Engine) TotalInstrs() uint64 { return e.Clock.Total }

// FootprintBytes estimates the runtime's memory requirement (Table 1):
// class images, heap allocation, thread stacks, VM metadata, plus the
// engine-specific parts (interpreter image, or translator + code cache).
func (e *Engine) FootprintBytes() uint64 {
	v := e.VM
	var stacks uint64
	for _, t := range v.Threads() {
		stacks += t.MaxStackTop - t.StackBase()
	}
	classBytes := uint64(0)
	for _, c := range v.ClassList {
		for _, m := range c.Methods {
			classBytes += m.CodeBytes
		}
		classBytes += uint64(len(c.VTable)+len(c.AllFields)+len(c.Statics)+8) * 8
		classBytes += uint64(len(c.Pool.Floats)+len(c.Pool.Strings)) * 8
	}
	base := classBytes + v.AllocBytes + stacks + 16<<10 // VM fixed structures
	// Interpreter image: handlers + dispatch table.
	base += uint64(bytecode.NumOps)*0x100 + uint64(bytecode.NumOps)*8
	if e.JIT.Translations > 0 || e.JIT.CacheHits > 0 {
		// Translator code, per-method bookkeeping and the code cache
		// (cache-hit installs occupy code-cache space like fresh
		// translations — sharing saves translate time, not address space).
		base += 48<<10 + uint64(len(e.JIT.ByID))*64 + e.JIT.CodeBytes
	}
	return base
}
