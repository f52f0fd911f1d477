package core

// Whole-program optimization plumbing: when Config.Devirt,
// Config.ElideLocks, Config.ElideBounds or Config.ElideNull is set, the
// engine takes the whole-program facts before the first execution (or
// precompile) and applies the proofs. A shared program (VM.Install)
// holds its facts, built once per program and only read here
// (vm.Program.IPA and Ranges); a program the engine loaded for itself
// (VM.Load) is analyzed here, once:
//
//   - Devirt feeds single-target facts to the JIT through jit.Facts, so
//     proven-monomorphic invokevirtual sites compile to direct calls
//     instead of vtable-indexed indirect jumps (the paper's §4.2 / Table
//     2 cost).
//   - ElideLocks rewrites bytecode in place: an invokevirtual whose
//     receiver is a thread-local allocation and whose unique target is
//     synchronized is rebound (invokespecial) to an unsynchronized
//     clone of that target, and monitorenter/monitorexit on thread-local
//     objects becomes a plain pop — the monitor subsystem never sees
//     the operation, statically reclassifying the §5 / Figure 11
//     thread-local lock traffic. So it needs a program the engine
//     loaded for itself (VM.Load), never a shared one (VM.Install).
//     Its race veto withdraws elisions into sets the engine owns: no
//     code writes into an ipa.Result once Analyze returns it.
//
// All rewrites preserve instruction widths (invoke 3 bytes either way,
// monitorenter/monitorexit/pop all 1 byte), so code layout, addresses,
// and footprint are unchanged.

import (
	"errors"
	"slices"

	"jrs/internal/analysis/conc"
	"jrs/internal/analysis/ipa"
	"jrs/internal/analysis/vrange"
	"jrs/internal/bytecode"
)

// ipaFacts adapts the whole-program analysis results to jit.Facts and
// vm.CheckFacts, mapping unsynchronized clones back to the original
// method ids whose Code they share so facts recorded against the
// original apply inside the clone too. devirt gates DevirtTarget so a
// run with only check elision enabled does not silently devirtualize.
type ipaFacts struct {
	res    *ipa.Result
	vr     *vrange.Result
	alias  map[int]int
	devirt bool
}

func (f *ipaFacts) origID(m *bytecode.Method) int {
	id := m.ID
	if orig, ok := f.alias[id]; ok {
		id = orig
	}
	return id
}

func (f *ipaFacts) DevirtTarget(m *bytecode.Method, pc int) *bytecode.Method {
	if !f.devirt {
		return nil
	}
	return f.res.DevirtTargetID(f.origID(m), pc)
}

func (f *ipaFacts) BoundsProven(m *bytecode.Method, pc int) bool {
	return f.vr != nil && f.vr.BoundsProvenID(f.origID(m), pc)
}

func (f *ipaFacts) NullProven(m *bytecode.Method, pc int) bool {
	return f.vr != nil && f.vr.NullProvenID(f.origID(m), pc)
}

// prepare reads the whole-program facts and applies the enabled
// optimizations. A VM that shares its program reads the facts the
// program holds (vm.Program.IPA and Ranges), built once per program; a
// VM that loaded its own program analyzes that copy here. Guarded so
// Run after PrecompileAll (the AOT sequence) analyzes once; a failed
// prepare fails again on the next call.
func (e *Engine) prepare() error {
	if e.prepared || !e.devirt && !e.elideLocks && !e.elideBounds && !e.elideNull {
		return nil
	}
	p := e.VM.Program()
	var res *ipa.Result
	if p != nil {
		res = p.IPA()
	} else {
		res = ipa.Analyze(e.VM.ClassList)
	}
	e.IPA = res
	alias := map[int]int{}

	if e.elideLocks {
		if err := e.applyElision(res, alias); err != nil {
			return err
		}
	}
	facts := &ipaFacts{res: res, alias: alias, devirt: e.devirt}
	if e.elideBounds || e.elideNull {
		// On a private program the value-range analysis runs after lock
		// elision's bytecode rewrites, so it sees the code that will
		// actually execute.
		if p != nil {
			e.VRange = p.Ranges()
		} else {
			e.VRange = vrange.Analyze(e.VM.ClassList, res)
		}
		facts.vr = e.VRange
		e.VM.Checks = facts
		e.JIT.Opt.ElideBounds = e.elideBounds
	}
	if e.devirt || facts.vr != nil {
		e.JIT.Opt.Facts = facts
	}
	e.prepared = true
	return nil
}

// elisions returns the call sites and methods lock elision may rewrite:
// res's, less those the static race analysis vetoes. An elision whose
// receiver allocation site participates in a reported race pair is
// withdrawn. Escape analysis already proves the receivers thread-local
// — so on a correct analysis pair this never vetoes — but the
// cross-check means a soundness bug in one analysis cannot silently
// remove a lock that real races depend on. The sets are the engine's
// own: res is never written.
func (e *Engine) elisions(res *ipa.Result) (map[ipa.Site]*bytecode.Method, map[*bytecode.Method]bool) {
	calls := make(map[ipa.Site]*bytecode.Method, len(res.ElideCalls))
	monitors := make(map[*bytecode.Method]bool, len(res.ElideMonitors))
	if len(res.ElideCalls) == 0 && len(res.ElideMonitors) == 0 {
		return calls, monitors
	}
	racy := conc.Analyze(e.VM.ClassList, res).RacySites()
	for site, target := range res.ElideCalls {
		if as, ok := res.ElideRecv[site]; !ok || !racy[as] {
			calls[site] = target
		}
	}
	for m := range res.ElideMonitors {
		if !slices.ContainsFunc(res.ElideMonitorSites[m], func(as ipa.Site) bool { return racy[as] }) {
			monitors[m] = true
		}
	}
	return calls, monitors
}

// applyElision rewrites the sites elisions admits in place. Iteration
// order is class list / method list / pc, so clone ids are
// deterministic. It refuses a program other VMs may share
// (vm.Install): the engine must load a private one (VM.Load).
func (e *Engine) applyElision(res *ipa.Result, alias map[int]int) error {
	if e.VM.SharesProgram() {
		return errors.New("lock elision rewrites bytecode in place: load a private program, not a shared one")
	}
	calls, monitors := e.elisions(res)
	clones := map[*bytecode.Method]*bytecode.Method{}
	for _, c := range e.VM.ClassList {
		for _, m := range c.Methods {
			if monitors[m] {
				for pc, ins := range m.Code {
					if ins.Op == bytecode.MonitorEnter || ins.Op == bytecode.MonitorExit {
						m.Code[pc] = bytecode.Instr{Op: bytecode.Pop}
						e.ElidedMonitorOps++
					}
				}
			}
			for pc := range m.Code {
				target := calls[ipa.Site{Method: m.ID, PC: pc}]
				if target == nil {
					continue
				}
				clone := clones[target]
				if clone == nil {
					clone = e.VM.RegisterUnsyncClone(target)
					clones[target] = clone
					alias[clone.ID] = target.ID
				}
				m.Code[pc] = bytecode.Instr{
					Op: bytecode.InvokeSpecial,
					A:  clonePoolRef(&m.Class.Pool, clone),
				}
				e.ElidedSyncSites++
			}
		}
	}
	return nil
}

// clonePoolRef returns a pool index whose Resolved is the clone,
// appending a pre-resolved entry on first use per pool. Pool.AddMethod
// cannot be used: it dedupes by (class, name, sig) against entries the
// loader resolved through the class's method tables, which the clone is
// deliberately absent from.
func clonePoolRef(p *bytecode.Pool, clone *bytecode.Method) int32 {
	for i := range p.Methods {
		if p.Methods[i].Resolved == clone {
			return int32(i)
		}
	}
	p.Methods = append(p.Methods, bytecode.MethodRef{
		Class:    clone.Class.Name,
		Name:     clone.Name,
		Sig:      clone.Sig.String(),
		Resolved: clone,
	})
	return int32(len(p.Methods) - 1)
}
