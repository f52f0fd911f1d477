// Package classfile serializes compiled classes to a compact binary
// format — the repository's analogue of .class files — so MiniJava
// programs can be compiled once with cmd/mjc and executed later with
// `jrs run prog.jrsc`. The format is versioned and self-describing enough for
// round-trip fidelity of everything the loader needs: fields, statics,
// method bodies, flags and the symbolic constant pool.
package classfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"

	"jrs/internal/bytecode"
)

// Magic identifies the file format ("JRSC" little-endian).
const Magic = 0x4353524A

// Version is the current format version.
const Version = 2

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) u8(v uint8) {
	if w.err == nil {
		w.err = w.w.WriteByte(v)
	}
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	if w.err == nil {
		_, w.err = w.w.Write(b[:])
	}
}

func (w *writer) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	if w.err == nil {
		_, w.err = w.w.Write(b[:])
	}
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil {
		return 0
	}
	b, err := r.r.ReadByte()
	r.err = err
	return b
}

func (r *reader) u32() uint32 {
	var b [4]byte
	if r.err != nil {
		return 0
	}
	_, r.err = io.ReadFull(r.r, b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) u64() uint64 {
	var b [8]byte
	if r.err != nil {
		return 0
	}
	_, r.err = io.ReadFull(r.r, b[:])
	return binary.LittleEndian.Uint64(b[:])
}

const maxStr = 16 << 20

func (r *reader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > maxStr {
		r.err = fmt.Errorf("classfile: string length %d too large", n)
		return ""
	}
	// Grow the buffer as bytes actually arrive instead of trusting the
	// declared length: a corrupt 4-byte header must not reserve
	// megabytes before the (truncated) payload fails to materialize.
	var sb strings.Builder
	sb.Grow(capHint(n, 64<<10))
	if _, err := io.CopyN(&sb, r.r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
		return ""
	}
	return sb.String()
}

// Write serializes classes to w.
func Write(out io.Writer, classes []*bytecode.Class) error {
	w := &writer{w: bufio.NewWriter(out)}
	w.u32(Magic)
	w.u32(Version)
	w.u32(uint32(len(classes)))
	for _, c := range classes {
		writeClass(w, c)
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

func writeClass(w *writer, c *bytecode.Class) {
	w.str(c.Name)
	w.str(c.SuperName)

	w.u32(uint32(len(c.Fields)))
	for _, f := range c.Fields {
		w.str(f.Name)
		w.u8(uint8(f.Type))
	}
	w.u32(uint32(len(c.Statics)))
	for _, f := range c.Statics {
		w.str(f.Name)
		w.u8(uint8(f.Type))
	}

	p := &c.Pool
	w.u32(uint32(len(p.Floats)))
	for _, f := range p.Floats {
		w.u64(math.Float64bits(f))
	}
	w.u32(uint32(len(p.Strings)))
	for _, s := range p.Strings {
		w.str(s)
	}
	w.u32(uint32(len(p.Classes)))
	for _, cr := range p.Classes {
		w.str(cr.Name)
	}
	w.u32(uint32(len(p.Fields)))
	for _, fr := range p.Fields {
		w.str(fr.Class)
		w.str(fr.Name)
	}
	w.u32(uint32(len(p.Methods)))
	for _, mr := range p.Methods {
		w.str(mr.Class)
		w.str(mr.Name)
		w.str(mr.Sig)
	}

	w.u32(uint32(len(c.Methods)))
	for _, m := range c.Methods {
		w.str(m.Name)
		w.str(m.Sig.String())
		w.u32(m.Flags)
		w.u32(uint32(m.MaxLocals))
		w.u32(uint32(len(m.Code)))
		for _, ins := range m.Code {
			w.u8(uint8(ins.Op))
			w.u32(uint32(ins.A))
			w.u32(uint32(ins.B))
		}
	}
}

// Read deserializes a class bundle.
func Read(in io.Reader) ([]*bytecode.Class, error) {
	r := &reader{r: bufio.NewReader(in)}
	if m := r.u32(); m != Magic {
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("classfile: bad magic 0x%x", m)
	}
	if v := r.u32(); v != Version {
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("classfile: unsupported version %d (want %d)", v, Version)
	}
	n := r.u32()
	if n > 1<<20 {
		return nil, fmt.Errorf("classfile: implausible class count %d", n)
	}
	classes := make([]*bytecode.Class, 0, capHint(n, 256))
	for i := uint32(0); i < n; i++ {
		c, err := readClass(r)
		if err != nil {
			return nil, err
		}
		classes = append(classes, c)
	}
	if r.err != nil {
		return nil, r.err
	}
	return classes, nil
}

func readClass(r *reader) (*bytecode.Class, error) {
	c := &bytecode.Class{}
	c.Name = r.str()
	c.SuperName = r.str()

	nf := r.u32()
	for i := uint32(0); i < nf && r.err == nil; i++ {
		c.Fields = append(c.Fields, bytecode.Field{
			Name: r.str(), Type: bytecode.Type(r.u8()),
		})
	}
	ns := r.u32()
	for i := uint32(0); i < ns && r.err == nil; i++ {
		c.Statics = append(c.Statics, bytecode.Field{
			Name: r.str(), Type: bytecode.Type(r.u8()),
		})
	}

	p := &c.Pool
	for i, n := uint32(0), r.u32(); i < n && r.err == nil; i++ {
		p.Floats = append(p.Floats, math.Float64frombits(r.u64()))
	}
	for i, n := uint32(0), r.u32(); i < n && r.err == nil; i++ {
		p.Strings = append(p.Strings, r.str())
	}
	for i, n := uint32(0), r.u32(); i < n && r.err == nil; i++ {
		p.Classes = append(p.Classes, bytecode.ClassRef{Name: r.str()})
	}
	for i, n := uint32(0), r.u32(); i < n && r.err == nil; i++ {
		p.Fields = append(p.Fields, bytecode.FieldRef{Class: r.str(), Name: r.str()})
	}
	for i, n := uint32(0), r.u32(); i < n && r.err == nil; i++ {
		p.Methods = append(p.Methods, bytecode.MethodRef{
			Class: r.str(), Name: r.str(), Sig: r.str(),
		})
	}

	nm := r.u32()
	for i := uint32(0); i < nm && r.err == nil; i++ {
		name := r.str()
		sigStr := r.str()
		sig, err := bytecode.ParseSignature(sigStr)
		if err != nil && r.err == nil {
			return nil, fmt.Errorf("classfile: %s.%s: %v", c.Name, name, err)
		}
		m := &bytecode.Method{
			Name: name, Sig: sig,
			Flags:     r.u32(),
			MaxLocals: int(r.u32()),
		}
		nc := r.u32()
		if nc > 1<<24 {
			return nil, fmt.Errorf("classfile: %s.%s: implausible code size %d", c.Name, name, nc)
		}
		m.Code = make([]bytecode.Instr, 0, capHint(nc, 4096))
		for j := uint32(0); j < nc && r.err == nil; j++ {
			m.Code = append(m.Code, bytecode.Instr{
				Op: bytecode.Op(r.u8()),
				A:  int32(r.u32()),
				B:  int32(r.u32()),
			})
		}
		c.Methods = append(c.Methods, m)
	}
	return c, r.err
}

// capHint bounds a declared element count before it is trusted as an
// allocation size: a few header bytes must not reserve megabytes. The
// slice still grows to the declared count, but only as real input bytes
// back it.
func capHint(declared uint32, max int) int {
	if declared > uint32(max) {
		return max
	}
	return int(declared)
}

// Bytes serializes to a byte slice (testing convenience).
func Bytes(classes []*bytecode.Class) ([]byte, error) {
	var buf bytes.Buffer
	if err := Write(&buf, classes); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
