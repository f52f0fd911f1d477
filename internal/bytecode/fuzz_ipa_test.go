package bytecode_test

// Differential fuzzing of the interprocedural optimizer: whole-program
// devirtualization and escape-based lock elision (core.Config.Devirt /
// ElideLocks) are rewrites, and rewrites must be invisible. For any
// generated program the printed output must be byte-identical across
// {interpreter, JIT} x {baseline, optimized}, and the optimized runs
// may never execute MORE monitor operations than the baseline.
//
// The generator is structural, not byte-soup: it emits a fixed class
// hierarchy (A, B extends A, and C extends A that is never
// instantiated, so RTA reachability actually prunes) and assembles
// Main.main from a small menu of always-balanced actions — virtual
// calls with either-class receivers, synchronized virtual calls,
// nested monitor blocks of fuzz-chosen depth, heap publication of a
// receiver through a static, field reads and arithmetic. Every input
// therefore passes the load-time verifier and exercises exactly the
// constructs the optimizer rewrites.

import (
	"bytes"
	"testing"

	"jrs/internal/bytecode"
	"jrs/internal/core"
	"jrs/internal/minijava"
	"jrs/internal/vm"
)

// buildIPAFuzzProgram decodes fuzz bytes into a fresh program. Classes
// are rebuilt per engine run: linking (and vm.LinkElided's rewrite)
// writes into them, so each configuration links its own.
func buildIPAFuzzProgram(data []byte) []*bytecode.Class {
	sig := func(s string) bytecode.Signature {
		sg, err := bytecode.ParseSignature(s)
		if err != nil {
			panic(err)
		}
		return sg
	}

	a := &bytecode.Class{Name: "A", Fields: []bytecode.Field{{Name: "x", Type: bytecode.TInt}}}
	aX := a.Pool.AddField("A", "x")
	a.Methods = []*bytecode.Method{
		// m(k) = x + k
		{Name: "m", Sig: sig("(I)I"), MaxLocals: 2, Code: []bytecode.Instr{
			{Op: bytecode.ALoad, A: 0}, {Op: bytecode.GetField, A: aX},
			{Op: bytecode.ILoad, A: 1}, {Op: bytecode.IAdd},
			{Op: bytecode.IReturn},
		}},
		// synchronized syncGet() = x
		{Name: "syncGet", Sig: sig("()I"), Flags: bytecode.FlagSynchronized,
			MaxLocals: 1, Code: []bytecode.Instr{
				{Op: bytecode.ALoad, A: 0}, {Op: bytecode.GetField, A: aX},
				{Op: bytecode.IReturn},
			}},
		// bump(): x = x + 3
		{Name: "bump", Sig: sig("()V"), MaxLocals: 1, Code: []bytecode.Instr{
			{Op: bytecode.ALoad, A: 0},
			{Op: bytecode.ALoad, A: 0}, {Op: bytecode.GetField, A: aX},
			{Op: bytecode.IConst, A: 3}, {Op: bytecode.IAdd},
			{Op: bytecode.PutField, A: aX},
			{Op: bytecode.Return},
		}},
	}

	b := &bytecode.Class{Name: "B", SuperName: "A"}
	bX := b.Pool.AddField("A", "x")
	b.Methods = []*bytecode.Method{
		// m(k) = x*k + 1
		{Name: "m", Sig: sig("(I)I"), MaxLocals: 2, Code: []bytecode.Instr{
			{Op: bytecode.ALoad, A: 0}, {Op: bytecode.GetField, A: bX},
			{Op: bytecode.ILoad, A: 1}, {Op: bytecode.IMul},
			{Op: bytecode.IConst, A: 1}, {Op: bytecode.IAdd},
			{Op: bytecode.IReturn},
		}},
	}

	// C overrides m but is never instantiated: plain CHA sees two
	// possible targets at an A-typed site, RTA reachability sees fewer.
	c := &bytecode.Class{Name: "C", SuperName: "A"}
	c.Methods = []*bytecode.Method{
		{Name: "m", Sig: sig("(I)I"), MaxLocals: 2, Code: []bytecode.Instr{
			{Op: bytecode.IConst, A: 9}, {Op: bytecode.IReturn},
		}},
	}

	g := &bytecode.Class{Name: "G", Statics: []bytecode.Field{{Name: "sf", Type: bytecode.TRef}}}
	pool := &g.Pool
	gSF := pool.AddField("G", "sf")
	gX := pool.AddField("A", "x")
	newOf := func(sel byte) int32 {
		if sel&1 == 0 {
			return pool.AddClass("A")
		}
		return pool.AddClass("B")
	}
	mRef := pool.AddMethod("A", "m", "(I)I")
	syncRef := pool.AddMethod("A", "syncGet", "()I")
	bumpRef := pool.AddMethod("A", "bump", "()V")
	printiRef := pool.AddMethod("Sys", "printi", "(I)V")

	var code []bytecode.Instr
	emit := func(ins ...bytecode.Instr) { code = append(code, ins...) }
	printi := bytecode.Instr{Op: bytecode.InvokeStatic, A: printiRef}

	// Prologue: two receivers with fuzz-chosen dynamic types; local 1
	// optionally published to a static before any action runs.
	var sel [3]byte
	copy(sel[:], data)
	emit(bytecode.Instr{Op: bytecode.New, A: newOf(sel[0])}, bytecode.Instr{Op: bytecode.AStore, A: 0})
	emit(bytecode.Instr{Op: bytecode.New, A: newOf(sel[1])}, bytecode.Instr{Op: bytecode.AStore, A: 1})
	if sel[2]&1 == 1 {
		emit(bytecode.Instr{Op: bytecode.ALoad, A: 1}, bytecode.Instr{Op: bytecode.PutStatic, A: gSF})
	}

	actions := data
	if len(actions) > 3 {
		actions = actions[3:]
	} else {
		actions = nil
	}
	for i := 0; i+1 < len(actions) && i < 24; i += 2 {
		kind, k := actions[i]%6, int32(actions[i+1])
		recv := k & 1 // local 0 or 1
		load := bytecode.Instr{Op: bytecode.ALoad, A: recv}
		switch kind {
		case 0: // print recv.m(k%7)
			emit(load, bytecode.Instr{Op: bytecode.IConst, A: k % 7},
				bytecode.Instr{Op: bytecode.InvokeVirtual, A: mRef}, printi)
		case 1: // print recv.syncGet()
			emit(load, bytecode.Instr{Op: bytecode.InvokeVirtual, A: syncRef}, printi)
		case 2: // nested monitor block of depth 1..3 around a bump
			depth := int(k%3) + 1
			for d := 0; d < depth; d++ {
				emit(load, bytecode.Instr{Op: bytecode.MonitorEnter})
			}
			emit(load, bytecode.Instr{Op: bytecode.InvokeVirtual, A: bumpRef})
			for d := 0; d < depth; d++ {
				emit(load, bytecode.Instr{Op: bytecode.MonitorExit})
			}
		case 3: // print recv.x
			emit(load, bytecode.Instr{Op: bytecode.GetField, A: gX}, printi)
		case 4: // print k+3
			emit(bytecode.Instr{Op: bytecode.IConst, A: k},
				bytecode.Instr{Op: bytecode.IConst, A: 3},
				bytecode.Instr{Op: bytecode.IAdd}, printi)
		case 5: // publish local 1 mid-stream
			emit(bytecode.Instr{Op: bytecode.ALoad, A: 1}, bytecode.Instr{Op: bytecode.PutStatic, A: gSF})
		}
	}
	// Epilogue: observable final state of both receivers.
	emit(bytecode.Instr{Op: bytecode.ALoad, A: 0}, bytecode.Instr{Op: bytecode.GetField, A: gX}, printi)
	emit(bytecode.Instr{Op: bytecode.ALoad, A: 1}, bytecode.Instr{Op: bytecode.GetField, A: gX}, printi)
	emit(bytecode.Instr{Op: bytecode.Return})

	g.Methods = []*bytecode.Method{
		{Name: "main", Sig: sig("()V"), Flags: bytecode.FlagStatic, MaxLocals: 2, Code: code},
	}
	return []*bytecode.Class{a, b, c, g, minijava.SysClass()}
}

// runIPAFuzzConfig links one freshly built copy of the program (by
// vm.LinkElided when cfg elides locks), executes it and returns the
// output plus the dynamic monitor-operation count.
func runIPAFuzzConfig(t *testing.T, data []byte, cfg core.Config) (string, uint64) {
	t.Helper()
	link := vm.Link
	if cfg.ElideLocks {
		link = vm.LinkElided
	}
	p, err := link(buildIPAFuzzProgram(data))
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	e := core.New(cfg)
	if err := e.VM.Install(p); err != nil {
		t.Fatalf("load: %v", err)
	}
	main, err := e.VM.LookupMain()
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(main); err != nil {
		t.Fatalf("run: %v", err)
	}
	return e.VM.Out.String(), e.VM.Monitors.Stats().Ops()
}

func FuzzIPAPreservesSemantics(f *testing.F) {
	// Virtual dispatch on both dynamic types, devirt + print.
	f.Add([]byte{0, 1, 0, 0, 2, 0, 5, 1, 3})
	// Nested monitors on a thread-local receiver (fully elidable).
	f.Add([]byte{0, 0, 0, 2, 2, 2, 4, 1, 0})
	// Published receiver: elision must keep its locks.
	f.Add([]byte{1, 1, 1, 2, 1, 1, 1, 2, 3})
	// Mid-stream publication after sync calls.
	f.Add([]byte{0, 1, 0, 1, 0, 5, 0, 1, 1, 2, 5})
	// Everything at once, deeper action stream.
	f.Add([]byte{1, 0, 1, 0, 3, 1, 0, 2, 5, 3, 2, 4, 6, 2, 1, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		base := core.Config{Policy: core.InterpretOnly{}}
		opt := core.Config{Policy: core.InterpretOnly{}, Devirt: true, ElideLocks: true}
		outIB, opsIB := runIPAFuzzConfig(t, data, base)
		outIO, opsIO := runIPAFuzzConfig(t, data, opt)

		baseJ := core.Config{Policy: core.CompileFirst{}}
		optJ := core.Config{Policy: core.CompileFirst{}, Devirt: true, ElideLocks: true}
		outJB, opsJB := runIPAFuzzConfig(t, data, baseJ)
		outJO, opsJO := runIPAFuzzConfig(t, data, optJ)

		if !bytes.Equal([]byte(outIO), []byte(outIB)) {
			t.Errorf("interp: optimized output differs\nbase: %q\nopt:  %q", outIB, outIO)
		}
		if !bytes.Equal([]byte(outJB), []byte(outIB)) {
			t.Errorf("jit baseline output differs from interp\ninterp: %q\njit:    %q", outIB, outJB)
		}
		if !bytes.Equal([]byte(outJO), []byte(outIB)) {
			t.Errorf("jit optimized output differs\nbase: %q\nopt:  %q", outIB, outJO)
		}
		if opsIO > opsIB {
			t.Errorf("interp: elision increased monitor ops: %d -> %d", opsIB, opsIO)
		}
		if opsJO > opsJB {
			t.Errorf("jit: elision increased monitor ops: %d -> %d", opsJB, opsJO)
		}
	})
}
