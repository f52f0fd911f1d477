package jit

import (
	"jrs/internal/bytecode"
	"jrs/internal/vm"
)

// Hooks for the external tests (package jit_test), which build engines
// through internal/core.

// FreshAt runs the generator for m under opt with the install base at
// base, as if the program held no record, and records nothing.
func FreshAt(c *Compiler, m *bytecode.Method, opt Options, base uint64) (*Compiled, error) {
	c.codeNext = base
	cm, _, err := c.generate(m, opt)
	return cm, err
}

// ReplayAt replays the program's record of m under opt at tier with the
// install base at base; it reports false when there is no record.
func ReplayAt(c *Compiler, m *bytecode.Method, opt Options, tier int, base uint64) (*Compiled, bool) {
	r, ok := c.VM.Program().Translations().Load(keyOf(m, opt, tier))
	if !ok {
		return nil, false
	}
	c.codeNext = base
	return c.replay(m, r.(*record)), true
}

// RecordBase returns the base the recorded translation of m under opt at
// tier was first installed at.
func RecordBase(p *vm.Program, m *bytecode.Method, opt Options, tier int) (uint64, bool) {
	r, ok := p.Translations().Load(keyOf(m, opt, tier))
	if !ok {
		return 0, false
	}
	return r.(*record).base, true
}
