package isa

import (
	"strings"
	"testing"
)

func TestOpNames(t *testing.T) {
	for op := Op(0); op < NumOps; op++ {
		s := op.String()
		if s == "" || strings.HasPrefix(s, "op(") {
			t.Errorf("opcode %d has no mnemonic", op)
		}
	}
}

func TestPredicates(t *testing.T) {
	for _, op := range []Op{OpBeq, OpBne, OpBlt, OpBge, OpBle, OpBgt} {
		if !(Inst{Op: op}).IsBranch() {
			t.Errorf("%v should be a branch", op)
		}
	}
	for _, op := range []Op{OpJ, OpJal, OpJr, OpJalr, OpRet, OpCallRT, OpBeq} {
		if !(Inst{Op: op}).IsControl() {
			t.Errorf("%v should be control", op)
		}
	}
	for _, op := range []Op{OpAdd, OpLd, OpSt, OpFMul, OpHalt} {
		if (Inst{Op: op}).IsControl() {
			t.Errorf("%v should not be control", op)
		}
		if (Inst{Op: op}).IsBranch() {
			t.Errorf("%v should not be a branch", op)
		}
	}
}

func TestDisassemble(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: OpNop}, "nop"},
		{Inst{Op: OpLui, Rd: 5, Imm: 77}, "lui r5, 77"},
		{Inst{Op: OpAdd, Rd: 1, Rs1: 2, Rs2: 3}, "add r1, r2, r3"},
		{Inst{Op: OpAddi, Rd: 1, Rs1: 2, Imm: -4}, "addi r1, r2, -4"},
		{Inst{Op: OpLd, Rd: 7, Rs1: 1, Imm: 16}, "ld r7, 16(r1)"},
		{Inst{Op: OpSt, Rs1: 1, Rs2: 9, Imm: 8}, "st r9, 8(r1)"},
		{Inst{Op: OpBeq, Rs1: 4, Rs2: 0, Target: 0x100}, "beq r4, r0, 0x100"},
		{Inst{Op: OpJ, Target: 0x80}, "j 0x80"},
		{Inst{Op: OpJalr, Rs1: 12}, "jalr r12"},
		{Inst{Op: OpRet}, "ret"},
		{Inst{Op: OpCallRT, Imm: SvcNew}, "callrt 0"},
		{Inst{Op: OpFLd, Rd: FReg0 + 2, Rs1: 1, Imm: 8}, "fld f2, 8(r1)"},
	}
	for _, tc := range cases {
		if got := tc.in.Disassemble(); got != tc.want {
			t.Errorf("%+v disassembles to %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestArgRegs(t *testing.T) {
	// All-int signature.
	regs, ok := ArgRegs(nil, []bool{false, false, false})
	if !ok || len(regs) != 3 || regs[0] != RArg0 || regs[2] != RArg0+2 {
		t.Fatalf("int regs: %v", regs)
	}
	// Mixed: floats get their own file.
	regs, _ = ArgRegs(nil, []bool{false, true, false, true})
	want := []uint8{RArg0, FReg0, RArg0 + 1, FReg0 + 1}
	for i := range want {
		if regs[i] != want[i] {
			t.Fatalf("mixed regs: %v, want %v", regs, want)
		}
	}
	// Overflow.
	many := make([]bool, NumArgRegs+1)
	if _, ok := ArgRegs(nil, many); ok {
		t.Fatal("over-wide int signature should fail")
	}
	floats := make([]bool, NumArgRegs+1)
	for i := range floats {
		floats[i] = true
	}
	if _, ok := ArgRegs(nil, floats); ok {
		t.Fatal("over-wide float signature should fail")
	}
	// Appending: dst's contents stay, a niladic signature is ok, and a
	// dst with room does not allocate.
	buf := make([]uint8, 1, 2*NumArgRegs+1)
	if regs, ok := ArgRegs(buf, nil); !ok || len(regs) != 1 {
		t.Fatalf("niladic: %v %v", regs, ok)
	}
	mixed := []bool{true, false, true}
	if n := testing.AllocsPerRun(10, func() { ArgRegs(buf[:0], mixed) }); n != 0 {
		t.Fatalf("ArgRegs into a roomy dst allocates %v times", n)
	}
}

func TestRegisterConventions(t *testing.T) {
	if RZero != 0 || NumIntRegs != 32 || FReg0 != 32 || NumRegs != 64 {
		t.Fatal("register layout constants changed unexpectedly")
	}
	if RVar0 <= RTmp0 {
		t.Fatal("stack-cache registers must come after scratch")
	}
}
