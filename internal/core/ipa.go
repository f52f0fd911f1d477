package core

// Whole-program optimization plumbing: when Config.Devirt,
// Config.ElideLocks, Config.ElideBounds or Config.ElideNull is set, the
// engine reads its installed program's facts (vm.Program.IPA and
// Ranges, built once per program) before the first execution (or
// precompile) and applies the proofs. Devirt feeds single-target facts
// to the JIT through jit.Facts, so proven-monomorphic invokevirtual
// sites compile to direct calls (the paper's §4.2 / Table 2 cost).
// ElideLocks runs a program vm.LinkElided rewrote at link time (§5 /
// Figure 11); the engine rewrites nothing. ElideBounds and ElideNull
// let the VM and the JIT skip the checks proven redundant.

import (
	"errors"
	"fmt"

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

// factsPrint is an ipaFacts fingerprint. Over one program the results
// are the program's own, so the answers differ only in whether
// DevirtTarget answers at all and whether range proofs are present.
type factsPrint struct{ devirt, ranges bool }

func (f *ipaFacts) Fingerprint() any { return factsPrint{f.devirt, f.vr != nil} }

func (f *ipaFacts) NullProven(m *bytecode.Method, pc int) bool {
	return f.vr != nil && f.vr.NullProvenID(f.origID(m), pc)
}

// prepare reads the installed program's whole-program facts and
// applies the enabled optimizations. It fails when Config.ElideLocks and
// the program's lock-elided marker disagree. Guarded so Run after
// PrecompileAll (the AOT sequence) prepares once; a failed prepare
// fails again on the next call.
func (e *Engine) prepare() error {
	if e.prepared {
		return nil
	}
	p := e.VM.Program()
	if p == nil {
		return errors.New("no program installed")
	}
	if e.elideLocks != p.LockElided {
		return fmt.Errorf("lock elision is %t for the engine but %t for its program: Config.ElideLocks runs exactly the programs vm.LinkElided links",
			e.elideLocks, p.LockElided)
	}
	e.prepared = true
	if !e.devirt && !e.elideLocks && !e.elideBounds && !e.elideNull {
		return nil
	}
	e.IPA = p.IPA()
	facts := &ipaFacts{res: e.IPA, alias: p.Alias, devirt: e.devirt}
	if e.elideBounds || e.elideNull {
		e.VRange = p.Ranges()
		facts.vr = e.VRange
		e.VM.Checks = facts
		e.JIT.Opt.ElideBounds = e.elideBounds
	}
	if e.devirt || facts.vr != nil {
		e.JIT.Opt.Facts = facts
	}
	return nil
}
