package bytecode

import (
	"fmt"
	"strings"
)

// Type is a value type in signatures and field declarations.
type Type uint8

const (
	// TVoid is usable only as a return type.
	TVoid Type = iota
	// TInt is a 64-bit integer.
	TInt
	// TFloat is a float64.
	TFloat
	// TRef is an object or array reference.
	TRef
)

// String returns the signature letter of the type.
func (t Type) String() string {
	switch t {
	case TVoid:
		return "V"
	case TInt:
		return "I"
	case TFloat:
		return "F"
	case TRef:
		return "A"
	}
	return "?"
}

// ParseType parses a signature letter.
func ParseType(b byte) (Type, error) {
	switch b {
	case 'V':
		return TVoid, nil
	case 'I':
		return TInt, nil
	case 'F':
		return TFloat, nil
	case 'A':
		return TRef, nil
	}
	return TVoid, fmt.Errorf("bad type letter %q", b)
}

// Signature describes a method's parameter and return types, encoded as
// e.g. "(IIA)F". The receiver is not part of the signature.
type Signature struct {
	Params []Type
	Ret    Type
}

// ParseSignature parses "(...)R" notation.
func ParseSignature(s string) (Signature, error) {
	if len(s) < 3 || s[0] != '(' {
		return Signature{}, fmt.Errorf("bad signature %q", s)
	}
	close := strings.IndexByte(s, ')')
	if close < 0 || close != len(s)-2 {
		return Signature{}, fmt.Errorf("bad signature %q", s)
	}
	sig := Signature{}
	for i := 1; i < close; i++ {
		t, err := ParseType(s[i])
		if err != nil || t == TVoid {
			return Signature{}, fmt.Errorf("bad parameter in %q", s)
		}
		sig.Params = append(sig.Params, t)
	}
	ret, err := ParseType(s[len(s)-1])
	if err != nil {
		return Signature{}, err
	}
	sig.Ret = ret
	return sig, nil
}

// String renders the signature in "(..)R" form.
func (s Signature) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for _, p := range s.Params {
		b.WriteString(p.String())
	}
	b.WriteByte(')')
	b.WriteString(s.Ret.String())
	return b.String()
}

// Method flags.
const (
	// FlagStatic marks a class (non-instance) method.
	FlagStatic = 1 << iota
	// FlagSynchronized wraps the body in the receiver's (or class's)
	// monitor.
	FlagSynchronized
)

// Method is one method body.
type Method struct {
	// Name is the simple name; "<init>" for constructors.
	Name string
	// Sig is the parsed signature.
	Sig Signature
	// Flags is a bitmask of Flag values.
	Flags uint32
	// MaxLocals is the local-variable frame size (parameters first;
	// for instance methods slot 0 is `this`).
	MaxLocals int
	// Code is the bytecode body.
	Code []Instr
	// Class is set once by vm.Link.
	Class *Class
	// VIndex is the method's vtable slot (virtual methods), set once by
	// vm.Link; -1 for static/special.
	VIndex int
	// ID is a global dense method id, set once by vm.Link, used by the
	// execution engines for per-method accounting.
	ID int
	// Addr is the simulated address of the bytecode stream in the class
	// segment, set once by vm.Link; PCOffsets[i] is instruction i's
	// byte offset so the interpreter reads the right data addresses.
	Addr      uint64
	PCOffsets []uint64
	// CodeBytes is the encoded size of the body.
	CodeBytes uint64
}

// IsStatic reports whether the method is static.
func (m *Method) IsStatic() bool { return m.Flags&FlagStatic != 0 }

// IsSynchronized reports whether the method is synchronized.
func (m *Method) IsSynchronized() bool { return m.Flags&FlagSynchronized != 0 }

// NumArgs returns the number of argument slots including the receiver.
func (m *Method) NumArgs() int {
	n := len(m.Sig.Params)
	if !m.IsStatic() {
		n++
	}
	return n
}

// FullName returns Class.Name + "." + Name + Sig for diagnostics.
func (m *Method) FullName() string {
	cls := "?"
	if m.Class != nil {
		cls = m.Class.Name
	}
	return cls + "." + m.Name + m.Sig.String()
}

// Field is one instance or static field declaration.
type Field struct {
	Name string
	Type Type
	// Slot is the field's index within the object layout (instance) or
	// the class static area, assigned during resolution (inherited
	// fields occupy the leading slots).
	Slot int
}

// Pool reference kinds. References are symbolic in a freshly built class
// and resolved once by vm.Link.
type (
	// ClassRef names a class.
	ClassRef struct {
		Name string
		// Resolved is set once by vm.Link.
		Resolved *Class
	}
	// FieldRef names a field of a class.
	FieldRef struct {
		Class, Name string
		// Resolved is set once by vm.Link.
		Resolved *Field
		// Static records which table the field lives in.
		Static bool
		// Owner is the resolved declaring class.
		Owner *Class
	}
	// MethodRef names a method of a class.
	MethodRef struct {
		Class, Name, Sig string
		// Resolved is set once by vm.Link (for virtual calls this is
		// the statically named method; dispatch uses its VIndex).
		Resolved *Method
	}
)

// Pool is a class's constant pool.
type Pool struct {
	Floats  []float64
	Strings []string
	Classes []ClassRef
	Fields  []FieldRef
	Methods []MethodRef
}

// AddFloat interns a float constant and returns its index.
func (p *Pool) AddFloat(f float64) int32 {
	for i, v := range p.Floats {
		if v == f {
			return int32(i)
		}
	}
	p.Floats = append(p.Floats, f)
	return int32(len(p.Floats) - 1)
}

// AddString interns a string literal and returns its index.
func (p *Pool) AddString(s string) int32 {
	for i, v := range p.Strings {
		if v == s {
			return int32(i)
		}
	}
	p.Strings = append(p.Strings, s)
	return int32(len(p.Strings) - 1)
}

// AddClass interns a class reference and returns its index.
func (p *Pool) AddClass(name string) int32 {
	for i, v := range p.Classes {
		if v.Name == name {
			return int32(i)
		}
	}
	p.Classes = append(p.Classes, ClassRef{Name: name})
	return int32(len(p.Classes) - 1)
}

// AddField interns a field reference and returns its index.
func (p *Pool) AddField(class, name string) int32 {
	for i, v := range p.Fields {
		if v.Class == class && v.Name == name {
			return int32(i)
		}
	}
	p.Fields = append(p.Fields, FieldRef{Class: class, Name: name})
	return int32(len(p.Fields) - 1)
}

// AddMethod interns a method reference and returns its index.
func (p *Pool) AddMethod(class, name, sig string) int32 {
	for i, v := range p.Methods {
		if v.Class == class && v.Name == name && v.Sig == sig {
			return int32(i)
		}
	}
	p.Methods = append(p.Methods, MethodRef{Class: class, Name: name, Sig: sig})
	return int32(len(p.Methods) - 1)
}

// Class is one class definition plus its resolved runtime structures.
type Class struct {
	Name string
	// SuperName is "" for root classes.
	SuperName string
	Super     *Class
	// Fields are the class's own instance fields; after resolution
	// AllFields includes inherited ones in slot order.
	Fields    []Field
	AllFields []Field
	// Statics are the class's static fields.
	Statics []Field
	// Methods are declared methods.
	Methods []*Method
	// VTable is the resolved virtual dispatch table (inherited +
	// overridden + new virtual methods).
	VTable []*Method
	Pool   Pool
	// StaticBase is the simulated address of the static field area.
	StaticBase uint64
	// PoolBase is the simulated address of the materialized constant
	// pool data (floats first, then interned string references), set
	// once by vm.Link.
	PoolBase uint64
	// ID is a dense class id, set once by vm.Link.
	ID int
	// Loaded marks resolution complete (set by vm.Link).
	Loaded bool
}

// FindMethod returns the declared method with the name and signature, or
// nil.
func (c *Class) FindMethod(name, sig string) *Method {
	for _, m := range c.Methods {
		if m.Name == name && m.Sig.String() == sig {
			return m
		}
	}
	return nil
}

// InstanceSize returns the number of field slots of an instance.
func (c *Class) InstanceSize() int { return len(c.AllFields) }
