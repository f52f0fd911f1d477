package core

// Whole-program optimization plumbing: when Config.Devirt or
// Config.ElideLocks is set, the engine runs internal/analysis/ipa once
// over the loaded class set before the first execution (or precompile)
// and applies the proofs:
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
//
// All rewrites preserve instruction widths (invoke 3 bytes either way,
// monitorenter/monitorexit/pop all 1 byte), so code layout, addresses,
// and footprint are unchanged.

import (
	"errors"

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

// prepare runs the analysis and applies the enabled optimizations.
// Guarded so Run after PrecompileAll (the AOT sequence) analyzes once;
// a failed prepare fails again on the next call.
func (e *Engine) prepare() error {
	if e.prepared || !e.devirt && !e.elideLocks && !e.elideBounds && !e.elideNull {
		return nil
	}
	res := ipa.Analyze(e.VM.ClassList)
	e.IPA = res
	alias := map[int]int{}

	if e.elideLocks {
		e.vetoRacyElisions(res)
		if err := e.applyElision(res, alias); err != nil {
			return err
		}
	}
	facts := &ipaFacts{res: res, alias: alias, devirt: e.devirt}
	if e.elideBounds || e.elideNull {
		// The value-range analysis runs after lock elision's bytecode
		// rewrites so it sees the code that will actually execute.
		e.VRange = vrange.Analyze(e.VM.ClassList, res)
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

// vetoRacyElisions consults the static race analysis before any lock is
// elided: an elision whose receiver allocation site participates in a
// reported race pair is withdrawn. Escape analysis already proves the
// receivers thread-local — so on a correct analysis pair this never
// fires — but the cross-check means a soundness bug in one analysis
// cannot silently remove a lock that real races depend on.
func (e *Engine) vetoRacyElisions(res *ipa.Result) {
	if len(res.ElideCalls) == 0 && len(res.ElideMonitors) == 0 {
		return
	}
	racy := conc.Analyze(e.VM.ClassList, res).RacySites()
	if len(racy) == 0 {
		return
	}
	for site, as := range res.ElideRecv {
		if racy[as] {
			delete(res.ElideCalls, site)
		}
	}
	for m, sites := range res.ElideMonitorSites {
		for _, as := range sites {
			if racy[as] {
				delete(res.ElideMonitors, m)
				break
			}
		}
	}
}

// applyElision rewrites elidable sites in place. Iteration order is
// class list / method list / pc, so clone ids are deterministic. It
// refuses a program other VMs may share (vm.Install): the engine must
// load a private one (VM.Load).
func (e *Engine) applyElision(res *ipa.Result, alias map[int]int) error {
	if e.VM.SharesProgram() {
		return errors.New("lock elision rewrites bytecode in place: load a private program, not a shared one")
	}
	clones := map[*bytecode.Method]*bytecode.Method{}
	for _, c := range e.VM.ClassList {
		for _, m := range c.Methods {
			if res.ElideMonitors[m] {
				for pc, ins := range m.Code {
					if ins.Op == bytecode.MonitorEnter || ins.Op == bytecode.MonitorExit {
						m.Code[pc] = bytecode.Instr{Op: bytecode.Pop}
						e.ElidedMonitorOps++
					}
				}
			}
			for pc := range m.Code {
				target := res.ElideCalls[ipa.Site{Method: m.ID, PC: pc}]
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
