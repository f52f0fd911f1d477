package trace

import (
	"testing"
	"testing/quick"
)

func TestClassPredicates(t *testing.T) {
	cases := []struct {
		c        Class
		mem      bool
		control  bool
		indirect bool
	}{
		{ALU, false, false, false},
		{FPU, false, false, false},
		{Load, true, false, false},
		{Store, true, false, false},
		{Branch, false, true, false},
		{Jump, false, true, false},
		{Call, false, true, false},
		{Ret, false, true, true},
		{IndirectJump, false, true, true},
		{IndirectCall, false, true, true},
	}
	for _, tc := range cases {
		if got := tc.c.IsMem(); got != tc.mem {
			t.Errorf("%v.IsMem() = %v", tc.c, got)
		}
		if got := tc.c.IsControl(); got != tc.control {
			t.Errorf("%v.IsControl() = %v", tc.c, got)
		}
		if got := tc.c.IsIndirect(); got != tc.indirect {
			t.Errorf("%v.IsIndirect() = %v", tc.c, got)
		}
	}
}

func TestClassStrings(t *testing.T) {
	seen := map[string]bool{}
	for c := Class(0); c < NumClasses; c++ {
		s := c.String()
		if s == "" || s == "unknown" {
			t.Errorf("class %d has no name", c)
		}
		if seen[s] {
			t.Errorf("duplicate class name %q", s)
		}
		seen[s] = true
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Emit(Inst{Class: Load, Phase: PhaseExec})
	c.Emit(Inst{Class: Store, Phase: PhaseTranslate})
	c.Emit(Inst{Class: ALU, Phase: PhaseExec})
	c.Emit(Inst{Class: IndirectJump, Phase: PhaseExec})

	if c.Total != 4 {
		t.Fatalf("total = %d", c.Total)
	}
	if got := c.MemFrac(); got != 0.5 {
		t.Errorf("mem frac = %v", got)
	}
	if got := c.IndirectFrac(); got != 0.25 {
		t.Errorf("indirect frac = %v", got)
	}
	if got := c.ControlFrac(); got != 0.25 {
		t.Errorf("control frac = %v", got)
	}
	if c.ByPhase(PhaseTranslate) != 1 {
		t.Errorf("translate phase count = %d", c.ByPhase(PhaseTranslate))
	}
	c.Reset()
	if c.Total != 0 || c.ByClass(Load) != 0 {
		t.Error("reset did not clear")
	}
}

// Property: counter class totals always sum to Total.
func TestCounterSumsProperty(t *testing.T) {
	f := func(classes []uint8) bool {
		var c Counter
		for _, b := range classes {
			c.Emit(Inst{Class: Class(b % uint8(NumClasses))})
		}
		var sum uint64
		for cl := Class(0); cl < NumClasses; cl++ {
			sum += c.ByClass(cl)
		}
		return sum == c.Total && c.Total == uint64(len(classes))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTee(t *testing.T) {
	var a, b Counter
	sink := Tee(&a, nil, &b)
	sink.Emit(Inst{Class: ALU})
	sink.Emit(Inst{Class: Load})
	if a.Total != 2 || b.Total != 2 {
		t.Fatalf("tee fanout: %d, %d", a.Total, b.Total)
	}
	// Degenerate cases.
	if Tee() != Discard {
		t.Error("empty tee should be Discard")
	}
	if Tee(&a) != Sink(&a) {
		t.Error("single tee should collapse")
	}
	Discard.Emit(Inst{}) // must not panic
}

func TestSwitchable(t *testing.T) {
	var c Counter
	sw := &Switchable{}
	sw.Emit(Inst{Class: ALU}) // dropped
	sw.S = &c
	sw.Emit(Inst{Class: ALU})
	if c.Total != 1 {
		t.Fatalf("switchable: %d", c.Total)
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseExec.String() != "exec" || PhaseTranslate.String() != "translate" ||
		PhaseLoad.String() != "load" {
		t.Error("phase names wrong")
	}
}
