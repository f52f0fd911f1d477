// Translation records: each method is translated once per program.
//
// What the generator produces depends only on the linked program, the
// method, the options (and what their Facts answer) and the tier — and
// on the install base, but only through the intra-method branch targets.
// So the first translation of a method on a program is recorded on the
// program (vm.Program.Translations), and every later translation with
// the same key, in any engine installing that program, installs the
// recorded code at its own base and re-emits the translate-phase stream
// from the recorded layout (traceTranslation). A replay charges the
// simulation exactly what a fresh translation charges; only the host
// work of type flow and code generation is saved. Records are never
// written after they are stored, so concurrent engines share them, and
// they are freed with their program.
package jit

import (
	"jrs/internal/bytecode"
	"jrs/internal/isa"
)

// recordKey names one translation of a method on a program: its id,
// the tier, the options with Facts cleared (so a new Options field
// joins the key by itself) and the fingerprint of what Facts answers.
type recordKey struct {
	id, tier int
	opt      Options
	facts    any
}

func keyOf(m *bytecode.Method, opt Options, tier int) recordKey {
	k := recordKey{id: m.ID, tier: tier, opt: opt}
	if opt.Facts != nil {
		k.opt.Facts = nil
		k.facts = opt.Facts.Fingerprint()
	}
	return k
}

// record is a method's first translation on a program. code is that
// translation's own slice, installed at base, and rel indexes its
// intra-method branch targets; start and the code length are the layout
// traceTranslation re-emits the stream from. Nothing writes any of it
// after it is stored.
type record struct {
	code       []isa.Inst
	base       uint64
	rel        []int32
	start      []int32
	frameBytes uint64
	elided     map[int]ElidedCheck
}

// relTargets returns the indices of code's intra-method branch targets:
// the only words that depend on the install base (calls go through
// absolute stubs, traps through the absolute trap vector).
func relTargets(code []isa.Inst, base uint64) []int32 {
	limit := base + uint64(len(code))*isa.WordSize
	var rel []int32
	for idx := range code {
		if t := code[idx].Target; t >= base && t < limit {
			rel = append(rel, int32(idx))
		}
	}
	return rel
}

// relocate returns code with delta added to the targets rel indexes: the
// code itself when delta is zero, else a copy, so a shared slice is
// never written.
func relocate(code []isa.Inst, rel []int32, delta uint64) []isa.Inst {
	if delta == 0 {
		return code
	}
	out := make([]isa.Inst, len(code))
	copy(out, code)
	for _, idx := range rel {
		out[idx].Target += delta
	}
	return out
}

// translate produces one translation of m under opt at tier, installs
// it at the next aligned code-cache address and emits the translator's
// work for it. It replays the program's record of the same key when
// there is one; otherwise it runs the generator and records the result.
func (c *Compiler) translate(m *bytecode.Method, opt Options, tier int) (*Compiled, error) {
	p := c.VM.Program()
	k := keyOf(m, opt, tier)
	if r, ok := p.Translations().Load(k); ok {
		return c.replay(m, r.(*record)), nil
	}
	cm, start, err := c.generate(m, opt)
	if err != nil {
		return nil, err
	}
	p.Translations().LoadOrStore(k, &record{
		code:       cm.Code,
		base:       cm.Base,
		rel:        relTargets(cm.Code, cm.Base),
		start:      start,
		frameBytes: cm.FrameBytes,
		elided:     cm.Elided,
	})
	return cm, nil
}

// generate runs the code generator for m under opt, installs the code
// and emits the translator's work; it also returns the code layout.
func (c *Compiler) generate(m *bytecode.Method, opt Options) (*Compiled, []int32, error) {
	g := &gen{c: c, m: m, cls: m.Class, opt: opt}
	cm, err := g.run()
	if err != nil {
		return nil, nil, err
	}
	c.traceTranslation(m, cm.Base, g.start, len(cm.Code))
	return cm, g.start, nil
}

// replay installs r, a record of m, and emits the translator's work
// exactly as generating it afresh at the same base would.
func (c *Compiler) replay(m *bytecode.Method, r *record) *Compiled {
	base := c.claim(len(r.code))
	c.traceTranslation(m, base, r.start, len(r.code))
	return &Compiled{
		M:          m,
		Base:       base,
		Code:       relocate(r.code, r.rel, base-r.base),
		FrameBytes: r.frameBytes,
		Elided:     r.elided,
	}
}
