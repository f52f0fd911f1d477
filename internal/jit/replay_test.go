package jit_test

import (
	"maps"
	"slices"
	"testing"

	"jrs/internal/core"
	"jrs/internal/jit"
	"jrs/internal/trace"
	"jrs/internal/vm"
	"jrs/internal/workloads"
)

// streamSink keeps every instruction it sees.
type streamSink struct{ insts []trace.Inst }

func (s *streamSink) Emit(in trace.Inst)           { s.insts = append(s.insts, in) }
func (s *streamSink) EmitBatch(batch []trace.Inst) { s.insts = append(s.insts, batch...) }

// countRecords returns how many translations p holds a record of.
func countRecords(p *vm.Program) int {
	n := 0
	p.Translations().Range(func(_, _ any) bool { n++; return true })
	return n
}

// TestReplayMatchesFresh: for every method of the eight workloads at
// bench scale, under each configuration that keys a translation
// differently (the default, Devirtualize off, BaselineCodegen off,
// Devirt, ElideBounds with ElideNull, ElideNull alone), at tier 1 and at
// tier 2, replaying the program's record at the recorded base and at a
// shifted one gives what a fresh generator gives at that base: the same
// code, base, frame size and elided checks, the same translate-phase
// stream instruction for instruction, and the same emitted count. Each
// configuration records every method anew at tier 1, so no two of them
// — the ElideNull-only and Devirt engines in particular, which both
// carry Facts and neither elides bounds — share a record.
func TestReplayMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("translates every method of the eight workloads 24 times")
	}
	noDevirt := jit.DefaultOptions()
	noDevirt.Devirtualize = false
	register := jit.DefaultOptions()
	register.BaselineCodegen = false
	configs := []struct {
		name string
		cfg  core.Config
	}{
		{"default", core.Config{}},
		{"nodevirt", core.Config{JITOptions: noDevirt}},
		{"register", core.Config{JITOptions: register}},
		{"devirt", core.Config{Devirt: true}},
		{"checks", core.Config{ElideBounds: true, ElideNull: true}},
		{"nullchecks", core.Config{ElideNull: true}},
	}
	for _, w := range workloads.All() {
		p, err := vm.Link(w.Classes(w.BenchN))
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		for _, k := range configs {
			// Record: precompile every method at tier 1, then
			// recompile each at tier 2. Tier 1 must record every
			// method anew; at tier 2 the default and register
			// configurations key alike, and rightly share records.
			e := core.New(k.cfg)
			if err := e.VM.Install(p); err != nil {
				t.Fatal(err)
			}
			if err := e.PrecompileAll(); err != nil {
				t.Fatalf("%s/%s: %v", w.Name, k.name, err)
			}
			if n := countRecords(p) - records; n != e.JIT.Translations {
				t.Fatalf("%s/%s: %d tier-1 translations left %d records: the configuration replayed another's",
					w.Name, k.name, e.JIT.Translations, n)
			}
			for _, m := range p.Methods {
				if e.JIT.Lookup(m) == nil {
					continue
				}
				if _, err := e.JIT.Optimize(m); err != nil {
					t.Fatalf("%s/%s: %v", w.Name, k.name, err)
				}
			}
			records = countRecords(p)

			sink := &streamSink{}
			v := vm.New(sink, nil)
			if err := v.Install(p); err != nil {
				t.Fatal(err)
			}
			for tier := 1; tier <= 2; tier++ {
				opt := e.JIT.Opt
				if tier == 2 {
					opt.BaselineCodegen = false
				}
				c := jit.New(v, opt)
				for _, m := range p.Methods {
					if e.JIT.Lookup(m) == nil {
						continue
					}
					base, ok := jit.RecordBase(p, m, opt, tier)
					if !ok {
						t.Fatalf("%s/%s: no tier-%d record of %s", w.Name, k.name, tier, m.FullName())
					}
					for _, at := range []uint64{base, base + 0x10040} {
						sink.insts = sink.insts[:0]
						count := c.EM.Count
						fresh, err := jit.FreshAt(c, m, opt, at)
						if err != nil {
							t.Fatal(err)
						}
						freshStream, freshCount := slices.Clone(sink.insts), c.EM.Count-count
						sink.insts = sink.insts[:0]
						count = c.EM.Count
						replay, ok := jit.ReplayAt(c, m, opt, tier, at)
						if !ok {
							t.Fatalf("%s/%s: the tier-%d record of %s is gone", w.Name, k.name, tier, m.FullName())
						}
						where := func() string {
							return w.Name + "/" + k.name + " " + m.FullName()
						}
						if fresh.Base != at || replay.Base != at {
							t.Fatalf("%s tier %d: installed at %#x (fresh) and %#x (replay), want %#x", where(), tier, fresh.Base, replay.Base, at)
						}
						if !slices.Equal(replay.Code, fresh.Code) || replay.FrameBytes != fresh.FrameBytes ||
							!maps.Equal(replay.Elided, fresh.Elided) || replay.M != fresh.M {
							t.Fatalf("%s tier %d at %#x: the replay's translation differs from a fresh one", where(), tier, at)
						}
						if len(freshStream) == 0 || !slices.Equal(sink.insts, freshStream) {
							t.Fatalf("%s tier %d at %#x: the replay emitted %d translate instructions, a fresh translation %d (or others)",
								where(), tier, at, len(sink.insts), len(freshStream))
						}
						if n := c.EM.Count - count; n != freshCount {
							t.Fatalf("%s tier %d at %#x: the replay counted %d instructions, a fresh translation %d", where(), tier, at, n, freshCount)
						}
					}
				}
			}
		}
	}
}
