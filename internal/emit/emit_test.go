package emit

import (
	"testing"

	"jrs/internal/isa"
	"jrs/internal/trace"
)

// capture records emitted instructions.
type capture struct{ got []trace.Inst }

func (c *capture) Emit(i trace.Inst) { c.EmitBatch([]trace.Inst{i}) }

func (c *capture) EmitBatch(b []trace.Inst) { c.got = append(c.got, b...) }

func TestSequencePCsAdvance(t *testing.T) {
	c := &capture{}
	e := New(c, trace.PhaseExec)
	e.At(0x1000).ALU(3).Load(0x8000).Store(0x8008)
	if len(c.got) != 5 {
		t.Fatalf("emitted %d", len(c.got))
	}
	for i, in := range c.got {
		if in.PC != 0x1000+uint64(i)*4 {
			t.Errorf("instr %d PC %#x", i, in.PC)
		}
		if in.Phase != trace.PhaseExec {
			t.Errorf("instr %d phase %v", i, in.Phase)
		}
	}
	if e.Count != 5 {
		t.Errorf("count %d", e.Count)
	}
}

func TestChainAndBreak(t *testing.T) {
	c := &capture{}
	e := New(c, trace.PhaseExec)
	e.At(0).ALU(2).Break().ALU(1)
	if c.got[1].Src1 != c.got[0].Dst {
		t.Error("second ALU should chain to first")
	}
	if c.got[2].Src1 != trace.RegNone {
		t.Error("post-break instruction should be independent")
	}
}

func TestMemoryAndControlEvents(t *testing.T) {
	c := &capture{}
	e := New(c, trace.PhaseTranslate)
	e.At(0x40).Load(0xAA0).Store(0xBB0).Branch(true, 0x100).Jump(0x200).
		Call(0x300).Ret(0x304).IJump(0x400).ICall(0x500).FPU(1)
	wantClass := []trace.Class{trace.Load, trace.Store, trace.Branch,
		trace.Jump, trace.Call, trace.Ret, trace.IndirectJump,
		trace.IndirectCall, trace.FPU}
	for i, w := range wantClass {
		if c.got[i].Class != w {
			t.Errorf("event %d class %v, want %v", i, c.got[i].Class, w)
		}
		if c.got[i].Phase != trace.PhaseTranslate {
			t.Errorf("event %d phase wrong", i)
		}
	}
	if c.got[0].Addr != 0xAA0 || c.got[1].Addr != 0xBB0 {
		t.Error("memory addresses")
	}
	if c.got[2].Target != 0x100 || !c.got[2].Taken {
		t.Error("branch target/outcome")
	}
	if c.got[4].Dst != isa.RLR {
		t.Error("call should write the link register")
	}
	if c.got[5].Src1 != isa.RLR {
		t.Error("ret should read the link register")
	}
}

func TestRegisterRotationStaysInScratch(t *testing.T) {
	c := &capture{}
	e := New(c, trace.PhaseExec)
	e.At(0).ALU(20)
	for i, in := range c.got {
		if in.Dst < isa.RTmp0 || in.Dst >= isa.RVar0 {
			t.Errorf("instr %d dst r%d outside scratch range", i, in.Dst)
		}
	}
}

func TestNilSinkDefaultsToDiscard(t *testing.T) {
	e := New(nil, trace.PhaseExec)
	e.At(0).ALU(3) // must not panic
	if e.Count != 3 {
		t.Error("count should still accumulate")
	}
}

func TestPCAccessor(t *testing.T) {
	e := New(trace.Discard, trace.PhaseExec)
	s := e.At(0x100)
	s.ALU(2)
	if s.PC() != 0x108 {
		t.Errorf("PC() = %#x", s.PC())
	}
}
