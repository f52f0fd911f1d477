package vm

import (
	"fmt"
	"sort"
	"sync"

	"jrs/internal/analysis"
	"jrs/internal/analysis/conc"
	"jrs/internal/analysis/ipa"
	"jrs/internal/analysis/vrange"
	"jrs/internal/bytecode"
	"jrs/internal/mem"
)

// Program is a linked class list: class and method ids, field slots,
// vtables, code layout and resolved pool references, laid out at a
// fresh VM's class and static bases. Link (or LinkElided) builds it and
// nothing writes into its classes afterwards, so any number of VMs, on
// any goroutines, may install one Program (see DESIGN.md, "A program is
// linked once per process"). Its whole-program facts (IPA, Races,
// Ranges) are built once, on first use, and are read-only as well.
type Program struct {
	// Classes are the classes in load order; a class's ID is its index.
	Classes []*bytecode.Class
	// Methods are the declared methods, then any unsynchronized clones
	// LinkElided added, indexed by method ID.
	Methods []*bytecode.Method
	// LockElided marks a program LinkElided rewrote. Alias maps each
	// clone's ID to the ID of the synchronized original whose code it
	// shares. ElidedSyncSites counts the call sites rebound to a clone
	// and ElidedMonitorOps the monitorenter/monitorexit turned into pop.
	LockElided                        bool
	Alias                             map[int]int
	ElidedSyncSites, ElidedMonitorOps int
	// Diagnostics are the analysis pass suite's findings
	// (analysis.CheckMethod) over every method, in class and method
	// order.
	Diagnostics []analysis.Diagnostic
	// verdict is the first class a full verification rejects, as the
	// load error, or nil.
	verdict error
	// ipa, races and ranges build the whole-program facts on first use
	// (see IPA, Races and Ranges).
	ipa    func() *ipa.Result
	races  func() *conc.Report
	ranges func() *vrange.Result
	// translations is the JIT's slot (see Translations).
	translations sync.Map
}

// Verdict returns the error full verification (VerifyFull) reports for
// the program, or nil when it admits every class.
func (p *Program) Verdict() error { return p.verdict }

// IPA returns the program's interprocedural facts (ipa.Analyze), built
// on the first call. Every caller shares the result and only reads it.
func (p *Program) IPA() *ipa.Result { return p.ipa() }

// Races returns the program's static race and deadlock report
// (conc.Analyze over IPA), built on the first call and read-only.
func (p *Program) Races() *conc.Report { return p.races() }

// Ranges returns the program's value-range and nullness verdicts
// (vrange.Analyze over IPA), built on the first call and read-only.
func (p *Program) Ranges() *vrange.Result { return p.ranges() }

// Translations is where the JIT keeps the translations it records for
// the program's methods (see internal/jit), shared by every engine that
// installs the program and freed with it. Its keys and values are the
// JIT's own; vm never reads them.
func (p *Program) Translations() *sync.Map { return &p.translations }

// staticBase is where a fresh VM lays out the first class's statics.
const staticBase = mem.VMBase + 0x100_0000

// Link links a program's classes for any fresh VM to install. It
// assigns class and method ids, lays out bytecode in the class segment
// (so the interpreter's bytecode reads and the translator's walks touch
// stable data addresses), computes field slots and vtables, resolves
// pool references and verifies every method. A structural failure
// (linking, resolution, bytecode.Verify) is Link's error; the full
// analysis pass suite's verdict is kept on the Program, for the VMs
// that verify fully to report.
func Link(classes []*bytecode.Class) (*Program, error) {
	p, err := link(classes)
	if err != nil {
		return nil, err
	}
	return p, nil
}

// link is Link, returning the program even on a structural error: its
// verdict then covers the classes before the failing one, which a fully
// verifying Load reports first.
func link(classes []*bytecode.Class) (*Program, error) {
	p := &Program{}
	p.ipa = sync.OnceValue(func() *ipa.Result { return ipa.Analyze(p.Classes) })
	p.races = sync.OnceValue(func() *conc.Report { return conc.Analyze(p.Classes, p.IPA()) })
	p.ranges = sync.OnceValue(func() *vrange.Result { return vrange.Analyze(p.Classes, p.IPA()) })
	// Deterministic order: as provided.
	byName := make(map[string]*bytecode.Class, len(classes))
	for _, c := range classes {
		if _, dup := byName[c.Name]; dup {
			return p, fmt.Errorf("load: duplicate class %q", c.Name)
		}
		c.ID = len(p.Classes)
		byName[c.Name] = c
		p.Classes = append(p.Classes, c)
	}

	// Resolve supers and build layouts parents-first.
	staticNext := staticBase
	var linkClass func(c *bytecode.Class) error
	linking := make(map[string]bool)
	linkClass = func(c *bytecode.Class) error {
		if c.Loaded {
			return nil
		}
		if linking[c.Name] {
			return fmt.Errorf("load: inheritance cycle at %q", c.Name)
		}
		linking[c.Name] = true
		defer delete(linking, c.Name)

		if c.SuperName != "" {
			super, ok := byName[c.SuperName]
			if !ok {
				return fmt.Errorf("load: %q extends unknown %q", c.Name, c.SuperName)
			}
			if err := linkClass(super); err != nil {
				return err
			}
			c.Super = super
		}

		// Field layout: inherited slots first.
		if c.Super != nil {
			c.AllFields = append(c.AllFields, c.Super.AllFields...)
		}
		for _, f := range c.Fields {
			f.Slot = len(c.AllFields)
			c.AllFields = append(c.AllFields, f)
		}
		for i := range c.Statics {
			c.Statics[i].Slot = i
		}
		c.StaticBase = staticNext
		staticNext += uint64(len(c.Statics)+1) * 8

		// VTable: inherit, override, extend.
		if c.Super != nil {
			c.VTable = append(c.VTable, c.Super.VTable...)
		}
		for _, m := range c.Methods {
			m.Class = c
			if m.IsStatic() || m.Name == "<init>" {
				m.VIndex = -1
				continue
			}
			sig := m.Sig.String()
			slot := -1
			for i, sm := range c.VTable {
				if sm.Name == m.Name && sm.Sig.String() == sig {
					slot = i
					break
				}
			}
			if slot >= 0 {
				c.VTable[slot] = m
				m.VIndex = slot
			} else {
				m.VIndex = len(c.VTable)
				c.VTable = append(c.VTable, m)
			}
		}
		c.Loaded = true
		return nil
	}
	for _, c := range classes {
		if err := linkClass(c); err != nil {
			return p, err
		}
	}

	// Assign global method ids first (vtables may reference methods of
	// classes appearing later in the input order).
	for _, c := range classes {
		for _, m := range c.Methods {
			m.ID = len(p.Methods)
			p.Methods = append(p.Methods, m)
		}
	}

	// Lay out bytecode and the pool data, resolve pools, verify.
	classNext := mem.ClassBase
	for _, c := range classes {
		for _, m := range c.Methods {
			m.Addr = classNext
			m.PCOffsets = make([]uint64, len(m.Code))
			var off uint64
			for i, ins := range m.Code {
				m.PCOffsets[i] = off
				off += ins.Op.Size()
			}
			m.CodeBytes = off
			classNext += off
			// Methods are padded apart the way real method blocks are.
			classNext = (classNext + 31) &^ 31
		}
		if err := resolvePool(c, byName); err != nil {
			return p, err
		}
		// The materialized constant pool data: float values, then
		// interned string references (see install).
		c.PoolBase = classNext
		classNext += uint64(len(c.Pool.Floats)+len(c.Pool.Strings)) * 8
		classNext = (classNext + 31) &^ 31
		for _, m := range c.Methods {
			if err := bytecode.Verify(c, m); err != nil {
				return p, err
			}
		}
		// Full verification: the shared static-analysis passes run over
		// every admitted method, and any Error finding (stack
		// discipline, definite assignment, monitor balance) rejects the
		// class — interpreted code gets the same guarantees the JIT's
		// typeflow used to give compiled code only.
		for _, m := range c.Methods {
			diags := analysis.CheckMethod(c, m)
			p.Diagnostics = append(p.Diagnostics, diags...)
			if errs := analysis.Errors(diags); len(errs) > 0 && p.verdict == nil {
				p.verdict = fmt.Errorf("load %s: verification failed: %s", c.Name, errs[0].Msg)
			}
		}
	}
	return p, nil
}

// Load links classes and installs them on v: Link, then Install. Under
// VerifyFull, a verification failure in a class before the one that
// fails to link is the error reported.
func (v *VM) Load(classes []*bytecode.Class) error {
	p, err := link(classes)
	if err != nil {
		if v.Verify == VerifyFull && p.verdict != nil {
			return p.verdict
		}
		return err
	}
	return v.Install(p)
}

// Install loads a linked program on v, which must not hold classes yet.
// It registers the classes and methods in v's tables, materializes each
// vtable and constant pool in v's memory, interns the pool strings and
// emits the class-loading trace that produces the paper's start-of-run
// miss spikes (Figure 6). It returns the program's verdict when v
// verifies fully. The program stays shared: nothing here writes into it.
func (v *VM) Install(p *Program) error {
	if len(v.ClassList) > 0 {
		return fmt.Errorf("load: VM already holds %d classes", len(v.ClassList))
	}
	if v.Verify == VerifyFull && p.verdict != nil {
		return p.verdict
	}
	v.ClassList = p.Classes
	v.MethodByID = p.Methods
	for _, c := range p.Classes {
		v.Classes[c.Name] = c
	}
	for _, c := range p.Classes {
		// Materialize the vtable in simulated memory: each slot holds the
		// implementing method's entry-stub address. Generated virtual
		// dispatch code loads these words.
		for vi, m := range c.VTable {
			v.Mem.Store(VTableEntryAddr(c.ID, vi), int64(StubAddr(m.ID)))
		}
		// Materialize the constant pool data: float values, then interned
		// string references (class loading resolves constants eagerly).
		for i, fv := range c.Pool.Floats {
			v.Mem.Store(c.PoolBase+uint64(i)*8, F2Bits(fv))
		}
		strBase := c.PoolBase + uint64(len(c.Pool.Floats))*8
		for i, sv := range c.Pool.Strings {
			v.Mem.Store(strBase+uint64(i)*8, int64(v.Intern(sv)))
		}
		v.emitLoadTrace(c)
	}
	if v.Race != nil {
		v.Race.OnClasses(v.ClassList)
	}
	v.prog = p
	return nil
}

// Program returns the program Load or Install installed on v, or nil
// while v holds no classes.
func (v *VM) Program() *Program { return v.prog }

// resolvePool fills in the Resolved fields of c's pool references
// against the program's classes.
func resolvePool(c *bytecode.Class, classes map[string]*bytecode.Class) error {
	p := &c.Pool
	for i := range p.Classes {
		r := &p.Classes[i]
		cl, ok := classes[r.Name]
		if !ok {
			return fmt.Errorf("resolve %s: unknown class %q", c.Name, r.Name)
		}
		r.Resolved = cl
	}
	for i := range p.Fields {
		r := &p.Fields[i]
		cl, ok := classes[r.Class]
		if !ok {
			return fmt.Errorf("resolve %s: field ref to unknown class %q", c.Name, r.Class)
		}
		// Instance field search over the resolved layout.
		found := false
		for fi := range cl.AllFields {
			if cl.AllFields[fi].Name == r.Name {
				r.Resolved = &cl.AllFields[fi]
				r.Static = false
				r.Owner = cl
				found = true
				break
			}
		}
		if !found {
			for k := cl; k != nil && !found; k = k.Super {
				for fi := range k.Statics {
					if k.Statics[fi].Name == r.Name {
						r.Resolved = &k.Statics[fi]
						r.Static = true
						r.Owner = k
						found = true
						break
					}
				}
			}
		}
		if !found {
			return fmt.Errorf("resolve %s: no field %s.%s", c.Name, r.Class, r.Name)
		}
	}
	for i := range p.Methods {
		r := &p.Methods[i]
		cl, ok := classes[r.Class]
		if !ok {
			return fmt.Errorf("resolve %s: method ref to unknown class %q", c.Name, r.Class)
		}
		var m *bytecode.Method
		for k := cl; k != nil && m == nil; k = k.Super {
			m = k.FindMethod(r.Name, r.Sig)
		}
		if m == nil {
			return fmt.Errorf("resolve %s: no method %s.%s%s", c.Name, r.Class, r.Name, r.Sig)
		}
		r.Resolved = m
	}
	return nil
}

// emitLoadTrace models the class loader reading the class image and
// writing runtime metadata.
func (v *VM) emitLoadTrace(c *bytecode.Class) {
	s := v.LD.At(pcLoad)
	// Read the class image (bytecodes + pool) from the class segment,
	// then run the verifier's sweep over each method body.
	for _, m := range c.Methods {
		for off := uint64(0); off < m.CodeBytes; off += 8 {
			s.Load(m.Addr + off).ALU(2)
		}
		ver := v.LD.At(pcLoad + 0x100)
		for _, off := range m.PCOffsets {
			ver.Load(m.Addr+off).ALU(5).Branch(true, pcLoad+0x100)
		}
		ver.Ret(0)
	}
	// Write metadata structures (vtable, field tables) into the VM area.
	meta := mem.VMBase + 0x200_0000 + uint64(c.ID)*4096
	words := len(c.VTable) + len(c.AllFields) + 8
	for i := 0; i < words; i++ {
		s.ALU(1).Store(meta + uint64(i)*8)
	}
	s.Ret(0)
}

// LookupMain returns the entry method: the static method named "main"
// with signature ()V or ()I, preferring the class named like the program.
func (v *VM) LookupMain() (*bytecode.Method, error) {
	var mains []*bytecode.Method
	for _, c := range v.ClassList {
		for _, m := range c.Methods {
			if m.Name == "main" && m.IsStatic() && len(m.Sig.Params) == 0 {
				mains = append(mains, m)
			}
		}
	}
	if len(mains) == 0 {
		return nil, fmt.Errorf("no static main() found")
	}
	sort.Slice(mains, func(i, j int) bool { return mains[i].ID < mains[j].ID })
	return mains[0], nil
}
