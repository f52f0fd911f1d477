package analysis

import (
	"strings"
	"testing"

	"jrs/internal/bytecode"
)

// method wraps code in a one-method class "T" for checking. The sig's
// param/ret types drive NumArgs and return checking.
func method(t *testing.T, sigStr string, maxLocals int, code []bytecode.Instr) (*bytecode.Class, *bytecode.Method) {
	t.Helper()
	sig, err := bytecode.ParseSignature(sigStr)
	if err != nil {
		t.Fatal(err)
	}
	m := &bytecode.Method{Name: "m", Sig: sig, Flags: bytecode.FlagStatic,
		MaxLocals: maxLocals, Code: code}
	c := &bytecode.Class{Name: "T", Methods: []*bytecode.Method{m}}
	m.Class = c
	return c, m
}

func ins(op bytecode.Op, a ...int32) bytecode.Instr {
	i := bytecode.Instr{Op: op}
	if len(a) > 0 {
		i.A = a[0]
	}
	if len(a) > 1 {
		i.B = a[1]
	}
	return i
}

func TestCFGDiamond(t *testing.T) {
	// 0: iconst       block 0 [0,2)
	// 1: ifeq -> 4
	// 2: iconst 1     block 1 [2,4)  (fallthrough arm)
	// 3: goto -> 5
	// 4: nop          block 2 [4,5)  (taken arm)
	// 5: return       block 3 [5,6)  (join)
	_, m := method(t, "()V", 0, []bytecode.Instr{
		ins(bytecode.IConst, 0), ins(bytecode.IfEq, 4),
		ins(bytecode.IConst, 1), ins(bytecode.Goto, 5),
		ins(bytecode.Nop), ins(bytecode.Return),
	})
	g, err := BuildCFG(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(g.Blocks))
	}
	if got := g.Blocks[0].Succs; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("entry succs = %v, want [fallthrough taken] = [1 2]", got)
	}
	if got := g.Blocks[3].Preds; len(got) != 2 {
		t.Fatalf("join preds = %v, want two", got)
	}
	if g.RPO[0] != 0 {
		t.Fatalf("RPO must start at entry, got %v", g.RPO)
	}
	seen := map[int]bool{}
	for _, b := range g.RPO {
		seen[b] = true
	}
	for bi := range g.Blocks {
		if !seen[bi] {
			t.Fatalf("block %d missing from RPO %v", bi, g.RPO)
		}
		if !g.Reachable(bi) {
			t.Fatalf("block %d should be reachable", bi)
		}
	}
	for i, bi := range g.BlockOf {
		b := g.Blocks[bi]
		if i < b.Start || i >= b.End {
			t.Fatalf("BlockOf[%d] = %d [%d,%d) does not contain it", i, bi, b.Start, b.End)
		}
	}
}

func TestCFGErrors(t *testing.T) {
	_, empty := method(t, "()V", 0, nil)
	if _, err := BuildCFG(empty); err == nil || !strings.Contains(err.Error(), "empty body") {
		t.Fatalf("empty body err = %v", err)
	}
	_, fallsOff := method(t, "()V", 0, []bytecode.Instr{ins(bytecode.Nop)})
	if _, err := BuildCFG(fallsOff); err == nil || !strings.Contains(err.Error(), "falls off") {
		t.Fatalf("fall-off err = %v", err)
	}
	_, badTarget := method(t, "()V", 0, []bytecode.Instr{ins(bytecode.Goto, 9)})
	if _, err := BuildCFG(badTarget); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bad target err = %v", err)
	}
}

// diag asserts exactly one finding of the pass exists and returns it.
func diag(t *testing.T, diags []Diagnostic, pass string) Diagnostic {
	t.Helper()
	var found []Diagnostic
	for _, d := range diags {
		if d.Pass == pass {
			found = append(found, d)
		}
	}
	if len(found) != 1 {
		t.Fatalf("findings for pass %s = %v, want exactly one (all: %v)", pass, found, diags)
	}
	return found[0]
}

func TestPassFindings(t *testing.T) {
	cases := []struct {
		name      string
		sig       string
		maxLocals int
		code      []bytecode.Instr
		pass      string // expected single finding's pass ("" = clean)
		pc        int
		sev       Severity
		msg       string // substring of the finding
	}{
		{
			name: "clean loop", sig: "(I)I", maxLocals: 2,
			// i=arg; acc=0; while (i != 0) { acc+=i; i-- via iinc } return acc
			code: []bytecode.Instr{
				ins(bytecode.IConst, 0), ins(bytecode.IStore, 1), // 0,1
				ins(bytecode.ILoad, 0), ins(bytecode.IfEq, 9), // 2,3
				ins(bytecode.ILoad, 1), ins(bytecode.ILoad, 0), ins(bytecode.IAdd), // 4,5,6
				ins(bytecode.IStore, 1), ins(bytecode.Goto, 2), // 7,8 (wrong: skips dec, but still terminates analysis-wise)
				ins(bytecode.ILoad, 1), ins(bytecode.IReturn), // 9,10
			},
		},
		{
			name: "stack underflow", sig: "()V", maxLocals: 0,
			code: []bytecode.Instr{ins(bytecode.Pop), ins(bytecode.Return)},
			pass: "typecheck", pc: 0, sev: Error, msg: "stack underflow",
		},
		{
			name: "operand type mismatch", sig: "()V", maxLocals: 0,
			code: []bytecode.Instr{
				ins(bytecode.IConst, 1), ins(bytecode.IConst, 2), ins(bytecode.FAdd),
				ins(bytecode.Pop), ins(bytecode.Return),
			},
			pass: "typecheck", pc: 2, sev: Error, msg: "want F",
		},
		{
			name: "stack depth join mismatch", sig: "()V", maxLocals: 0,
			// one arm leaves an int, the other nothing.
			code: []bytecode.Instr{
				ins(bytecode.IConst, 0), ins(bytecode.IfEq, 4), // 0,1
				ins(bytecode.IConst, 7), ins(bytecode.Goto, 4), // 2,3
				ins(bytecode.Return), // 4 join
			},
			pass: "typecheck", pc: 4, sev: Error, msg: "inconsistent stack depth at join",
		},
		{
			name: "stack type join mismatch", sig: "()V", maxLocals: 0,
			code: []bytecode.Instr{
				ins(bytecode.IConst, 0), ins(bytecode.IfEq, 4), // 0,1
				ins(bytecode.AConstNull), ins(bytecode.Goto, 5), // 2,3
				ins(bytecode.IConst, 7),                 // 4
				ins(bytecode.Pop), ins(bytecode.Return), // 5 join, 6
			},
			pass: "typecheck", pc: 5, sev: Error, msg: "inconsistent stack type at join slot 0",
		},
		{
			name: "wrong return opcode", sig: "()I", maxLocals: 0,
			code: []bytecode.Instr{ins(bytecode.Return)},
			pass: "typecheck", pc: 0, sev: Error, msg: "void return from method returning I",
		},
		{
			name: "unreachable block", sig: "()V", maxLocals: 0,
			code: []bytecode.Instr{
				ins(bytecode.Goto, 3),                // 0
				ins(bytecode.Nop), ins(bytecode.Nop), // 1,2 dead
				ins(bytecode.Return), // 3
			},
			pass: "reachability", pc: 1, sev: Warning, msg: "unreachable code: instructions 1..2 (2 dead)",
		},
		{
			name: "use before assign straight-line", sig: "()V", maxLocals: 1,
			code: []bytecode.Instr{
				ins(bytecode.ILoad, 0), ins(bytecode.Pop), ins(bytecode.Return),
			},
			pass: "definite-assignment", pc: 0, sev: Error, msg: "local 0 may be read before assignment",
		},
		{
			name: "use before assign on one path", sig: "(I)V", maxLocals: 2,
			// slot 1 assigned only on the fallthrough arm, read after join.
			code: []bytecode.Instr{
				ins(bytecode.ILoad, 0), ins(bytecode.IfEq, 4), // 0,1
				ins(bytecode.IConst, 7), ins(bytecode.IStore, 1), // 2,3
				ins(bytecode.ILoad, 1), ins(bytecode.Pop), ins(bytecode.Return), // 4,5,6
			},
			pass: "definite-assignment", pc: 4, sev: Error, msg: "local 1 may be read before assignment",
		},
		{
			name: "param slots assigned at entry", sig: "(IF)I", maxLocals: 3,
			code: []bytecode.Instr{
				ins(bytecode.ILoad, 0), ins(bytecode.IReturn),
			},
		},
		{
			name: "monitorexit without enter", sig: "()V", maxLocals: 0,
			code: []bytecode.Instr{
				ins(bytecode.AConstNull), ins(bytecode.MonitorExit), ins(bytecode.Return),
			},
			pass: "monitor-balance", pc: 1, sev: Error, msg: "monitorexit without a matching monitorenter",
		},
		{
			name: "return with monitor held", sig: "()V", maxLocals: 0,
			code: []bytecode.Instr{
				ins(bytecode.AConstNull), ins(bytecode.MonitorEnter), ins(bytecode.Return),
			},
			pass: "monitor-balance", pc: 2, sev: Error, msg: "return with 1 monitor(s) still held",
		},
		{
			name: "unbalanced monitors at join", sig: "(I)V", maxLocals: 1,
			// fallthrough arm enters a monitor, taken arm does not.
			code: []bytecode.Instr{
				ins(bytecode.ILoad, 0), ins(bytecode.IfEq, 4), // 0,1
				ins(bytecode.AConstNull), ins(bytecode.MonitorEnter), // 2,3
				ins(bytecode.Return), // 4 join
			},
			pass: "monitor-balance", pc: 4, sev: Error, msg: "unbalanced monitors at join (0 vs 1 held)",
		},
		{
			name: "balanced monitors", sig: "(I)V", maxLocals: 1,
			code: []bytecode.Instr{
				ins(bytecode.AConstNull), ins(bytecode.MonitorEnter),
				ins(bytecode.AConstNull), ins(bytecode.MonitorExit),
				ins(bytecode.Return),
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, m := method(t, tc.sig, tc.maxLocals, tc.code)
			diags := CheckMethod(c, m)
			if tc.pass == "" {
				if len(diags) != 0 {
					t.Fatalf("want clean, got %v", diags)
				}
				return
			}
			d := diag(t, diags, tc.pass)
			if d.PC != tc.pc {
				t.Errorf("pc = %d, want %d (%s)", d.PC, tc.pc, d)
			}
			if d.Sev != tc.sev {
				t.Errorf("severity = %s, want %s (%s)", d.Sev, tc.sev, d)
			}
			if !strings.Contains(d.Msg, tc.msg) {
				t.Errorf("msg = %q, want substring %q", d.Msg, tc.msg)
			}
			if d.Method != "T.m"+tc.sig {
				t.Errorf("method = %q, want %q", d.Method, "T.m"+tc.sig)
			}
		})
	}
}

// TestCheckMethodOrdering: multiple findings come out sorted by (pc,
// pass) so lint reports are deterministic.
func TestCheckMethodOrdering(t *testing.T) {
	c, m := method(t, "()V", 1, []bytecode.Instr{
		ins(bytecode.Goto, 2),  // 0
		ins(bytecode.Nop),      // 1 dead block
		ins(bytecode.ILoad, 0), // 2 read-before-assign
		ins(bytecode.Pop), ins(bytecode.Return),
	})
	diags := CheckMethod(c, m)
	if len(diags) != 2 {
		t.Fatalf("findings = %v, want 2", diags)
	}
	if diags[0].Pass != "reachability" || diags[0].PC != 1 {
		t.Fatalf("first finding = %v, want reachability @1", diags[0])
	}
	if diags[1].Pass != "definite-assignment" || diags[1].PC != 2 {
		t.Fatalf("second finding = %v, want definite-assignment @2", diags[1])
	}
	if len(Errors(diags)) != 1 {
		t.Fatalf("Errors() = %v, want just the definite-assignment finding", Errors(diags))
	}
	r := Render(diags)
	if !strings.Contains(r, "T.m()V @1: [reachability] warning: unreachable code") {
		t.Fatalf("render = %q", r)
	}
}

// TestTypeFlowVectors: the per-instruction stack vectors the JIT
// consumes reflect entry stacks, and dead instructions keep nil.
func TestTypeFlowVectors(t *testing.T) {
	c, m := method(t, "()F", 0, []bytecode.Instr{
		ins(bytecode.IConst, 1), // 0: entry stack []
		ins(bytecode.I2F),       // 1: [I]
		ins(bytecode.FReturn),   // 2: [F]
		ins(bytecode.Nop),       // 3: dead
		ins(bytecode.Goto, 3),   // 4: dead
	})
	types, err := TypeFlow(c, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(types[0]) != 0 {
		t.Fatalf("entry stack = %v, want empty", types[0])
	}
	if len(types[1]) != 1 || types[1][0] != bytecode.TInt {
		t.Fatalf("stack before i2f = %v, want [I]", types[1])
	}
	if len(types[2]) != 1 || types[2][0] != bytecode.TFloat {
		t.Fatalf("stack before freturn = %v, want [F]", types[2])
	}
	if types[3] != nil || types[4] != nil {
		t.Fatalf("dead instructions should have nil vectors, got %v / %v", types[3], types[4])
	}
	if MaxStackDepth(types) != 1 {
		t.Fatalf("MaxStackDepth = %d, want 1", MaxStackDepth(types))
	}
}

// TestInvokeChecking: argument/receiver popping and the
// static-vs-instance mode check against a resolved pool.
func TestInvokeChecking(t *testing.T) {
	callee := &bytecode.Method{Name: "f", Flags: bytecode.FlagStatic, MaxLocals: 2}
	var err error
	callee.Sig, err = bytecode.ParseSignature("(IF)I")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(code []bytecode.Instr) (*bytecode.Class, *bytecode.Method) {
		c, m := method(t, "()V", 0, code)
		callee.Class = c
		c.Pool.AddMethod("T", "f", "(IF)I")
		c.Pool.Methods[0].Resolved = callee
		return c, m
	}

	c, m := mk([]bytecode.Instr{
		ins(bytecode.IConst, 1), ins(bytecode.FConst, 0), // args in order
		ins(bytecode.InvokeStatic, 0), ins(bytecode.Pop), ins(bytecode.Return),
	})
	// FConst needs a pool entry for structural verification.
	c.Pool.AddFloat(1.5)
	if diags := CheckMethod(c, m); len(diags) != 0 {
		t.Fatalf("clean invoke reported %v", diags)
	}

	c, m = mk([]bytecode.Instr{
		ins(bytecode.IConst, 1), ins(bytecode.IConst, 2), // wrong: second arg int
		ins(bytecode.InvokeStatic, 0), ins(bytecode.Pop), ins(bytecode.Return),
	})
	d := diag(t, CheckMethod(c, m), "typecheck")
	if !strings.Contains(d.Msg, "want F") {
		t.Fatalf("mistyped arg msg = %q", d.Msg)
	}

	c, m = mk([]bytecode.Instr{
		ins(bytecode.IConst, 1), ins(bytecode.FConst, 0),
		ins(bytecode.InvokeVirtual, 0), ins(bytecode.Pop), ins(bytecode.Return),
	})
	c.Pool.AddFloat(1.5)
	d = diag(t, CheckMethod(c, m), "typecheck")
	if !strings.Contains(d.Msg, "invokevirtual of static method") {
		t.Fatalf("mode mismatch msg = %q", d.Msg)
	}
}

// TestStructurallyBroken: bodies bytecode.Verify rejects come back as a
// single "structure" diagnostic instead of panicking any pass.
func TestStructurallyBroken(t *testing.T) {
	c, m := method(t, "()V", 0, []bytecode.Instr{ins(bytecode.ILoad, 3), ins(bytecode.Return)})
	diags := CheckMethod(c, m)
	if len(diags) != 1 || diags[0].Pass != "structure" || diags[0].Sev != Error {
		t.Fatalf("diags = %v, want one structure error", diags)
	}
}

func TestPassNames(t *testing.T) {
	want := []string{"typecheck", "reachability", "definite-assignment", "monitor-balance"}
	got := PassNames()
	if len(got) != len(want) {
		t.Fatalf("PassNames() = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PassNames() = %v, want %v", got, want)
		}
	}
}
