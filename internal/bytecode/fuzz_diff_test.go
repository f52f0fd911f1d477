package bytecode_test

// Differential fuzzing of the static analyzer against the interpreter:
// any method body the analysis verifier admits (no Error-severity
// findings) must execute safely — the interpreter may finish, run out
// of its step budget, or throw a clean *vm.Error (the Java-exception
// analogue), but it must never fail with a raw Go panic such as an
// index-out-of-range on the operand stack. This is the load-time
// soundness contract: once the loader's full verification accepts a
// class, the execution engines rely on stack discipline holding.
//
// The generator draws from pool-free opcodes only (constants, locals,
// int arithmetic, stack shuffles, arrays, branches), so any structurally
// valid decode exercises the interesting passes without needing a
// resolved constant pool.

import (
	"testing"

	"jrs/internal/analysis"
	"jrs/internal/bytecode"
	"jrs/internal/interp"
	"jrs/internal/rt"
	"jrs/internal/vm"
)

// fuzzOps is the opcode menu; operands are filled from the fuzz input.
var fuzzOps = []bytecode.Op{
	bytecode.IConst, bytecode.IConst, bytecode.AConstNull,
	bytecode.ILoad, bytecode.IStore, bytecode.ALoad, bytecode.AStore,
	bytecode.IInc,
	bytecode.Pop, bytecode.Dup, bytecode.Swap,
	bytecode.IAdd, bytecode.ISub, bytecode.IMul, bytecode.IDiv, bytecode.IRem,
	bytecode.INeg, bytecode.IAnd, bytecode.IShl,
	bytecode.NewArray, bytecode.ArrayLength, bytecode.IALoad, bytecode.IAStore,
	bytecode.IfEq, bytecode.IfICmpLt, bytecode.IfNull, bytecode.Goto,
	bytecode.Return,
}

const fuzzMaxLocals = 4

// decodeBody turns fuzz bytes into a structurally plausible body: two
// bytes per instruction (opcode selector, operand), slots reduced mod
// MaxLocals, branch targets reduced mod the final length, and a
// guaranteed trailing Return.
func decodeBody(data []byte) []bytecode.Instr {
	var code []bytecode.Instr
	for i := 0; i+1 < len(data) && len(code) < 64; i += 2 {
		op := fuzzOps[int(data[i])%len(fuzzOps)]
		code = append(code, bytecode.Instr{Op: op, A: int32(data[i+1])})
	}
	code = append(code, bytecode.Instr{Op: bytecode.Return})
	n := int32(len(code))
	for i := range code {
		switch op := code[i].Op; {
		case op.IsBranch():
			code[i].A %= n
		case op == bytecode.ILoad || op == bytecode.IStore ||
			op == bytecode.ALoad || op == bytecode.AStore || op == bytecode.IInc:
			code[i].A %= fuzzMaxLocals
		case op == bytecode.NewArray:
			code[i].A = bytecode.KindInt
		case op == bytecode.IConst:
			code[i].A %= 7 // keep array sizes small
		}
	}
	return code
}

func FuzzAnalyzerAdmitsOnlySafeCode(f *testing.F) {
	f.Add([]byte{0, 3, 4, 0, 0, 2, 11, 0})        // iconst/istore/iconst/iadd-ish
	f.Add([]byte{19, 3, 9, 0, 22, 1, 20, 0})      // newarray/dup/iastore/arraylength
	f.Add([]byte{0, 1, 23, 4, 0, 5, 26, 2})       // branching
	f.Add([]byte{2, 0, 25, 3, 0, 1, 0, 2, 14, 9}) // aconstnull/ifnull/idiv
	f.Fuzz(func(t *testing.T, data []byte) {
		code := decodeBody(data)
		sig, _ := bytecode.ParseSignature("()V")
		m := &bytecode.Method{Name: "f", Sig: sig, Flags: bytecode.FlagStatic,
			MaxLocals: fuzzMaxLocals, Code: code}
		c := &bytecode.Class{Name: "F", Methods: []*bytecode.Method{m}}
		m.Class = c

		if len(analysis.Errors(analysis.CheckMethod(c, m))) > 0 {
			return // rejected at "load time": nothing to prove
		}
		// Admitted: the stack-depth bound must fit the interpreter frame.
		types, err := analysis.TypeFlow(c, m)
		if err != nil {
			t.Fatalf("CheckMethod clean but TypeFlow fails: %v", err)
		}
		if analysis.MaxStackDepth(types) > 40 {
			return
		}

		v := vm.New(nil, nil)
		v.Verify = vm.VerifyFull // the gate under test admitted it; Load must agree
		if err := v.Load([]*bytecode.Class{c}); err != nil {
			t.Fatalf("analyzer admitted but loader rejected: %v", err)
		}

		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(*vm.Error); ok {
					return // clean runtime throw (bounds, null, div-by-zero)
				}
				panic(r) // raw Go panic: verifier admitted unsafe code
			}
		}()
		in := interp.New(v)
		th := v.NewThread(nil, 0)
		fr := in.NewFrame(th, m, nil)
		for steps := 0; steps < 3000; steps++ {
			if tr := in.Step(th, fr); tr.Kind != rt.TrapNone {
				if tr.Kind != rt.TrapReturn {
					t.Fatalf("unexpected trap %v from pool-free code", tr.Kind)
				}
				break
			}
		}
	})
}
