// Package vm implements the Java-style runtime substrate shared by every
// execution engine: the object heap and its layout, the class loader and
// resolver, green threads, string interning, console intrinsics, and the
// bridge to the synchronization managers.
//
// The VM holds functional state (values live in the simulated memory) and
// emits the native-instruction cost of its services through emitters, so
// allocation, class loading and I/O show up in the architectural studies
// exactly like the corresponding JVM runtime code did under Shade.
package vm

import (
	"bytes"
	"fmt"
	"math"

	"jrs/internal/bytecode"
	"jrs/internal/emit"
	"jrs/internal/mem"
	"jrs/internal/monitor"
	"jrs/internal/trace"
)

// Object header layout (8-byte words):
//
//	word 0: class id (negative encodes array kind: -(kind+1))
//	word 1: lock word (thin-lock bits live here)
//	word 2: array length (arrays only)
//	word 2/3...: fields / elements
const (
	headerWords      = 2
	arrayHeaderWords = 3
	// ObjHeaderBytes is the byte size of an object header.
	ObjHeaderBytes = headerWords * 8
	// ArrHeaderBytes is the byte size of an array header.
	ArrHeaderBytes = arrayHeaderWords * 8
)

// Runtime-service code-region PCs (fixed so their I-cache footprint is
// small and reused, like real runtime routines).
const (
	pcAlloc  = mem.RuntimeBase + 0x0100
	pcZero   = mem.RuntimeBase + 0x0200
	pcIntern = mem.RuntimeBase + 0x0300
	pcPrint  = mem.RuntimeBase + 0x0400
	pcLoad   = mem.RuntimeBase + 0x0500
)

// Error is a runtime failure (null dereference, bounds, division) carrying
// VM context. Engines convert it to an ordinary error at their boundary.
type Error struct {
	Kind string
	Msg  string
}

// Error implements error.
func (e *Error) Error() string { return e.Kind + ": " + e.Msg }

// Throwf panics with a *Error; engine Run methods recover it.
func Throwf(kind, format string, args ...any) {
	panic(&Error{Kind: kind, Msg: fmt.Sprintf(format, args...)})
}

// VerifyLevel selects which static checks a VM enforces before
// admitting a program's classes. Link runs both levels' checks once
// per program; the level only picks the verdict.
type VerifyLevel int

const (
	// VerifyFull (the default) enforces the structural checks plus the
	// full internal/analysis pass suite — stack-type verification,
	// definite assignment, monitor balance — and rejects any Error
	// finding, the way the JVM verifier gates class loading.
	VerifyFull VerifyLevel = iota
	// VerifyStructural enforces only bytecode.Verify (branch targets,
	// pool indices, local slots). Tests exercising deliberately
	// ill-typed bodies opt into this level.
	VerifyStructural
)

// VM is the runtime instance.
type VM struct {
	Mem *mem.Memory
	// Verify is the admission-check level Load and Install apply
	// (default VerifyFull).
	Verify VerifyLevel
	// Classes maps name to loaded class; ClassList is indexed by class
	// id; MethodByID is indexed by method id.
	Classes    map[string]*bytecode.Class
	ClassList  []*bytecode.Class
	MethodByID []*bytecode.Method
	// Monitors is the active synchronization manager.
	Monitors monitor.Manager
	// RT emits runtime-service instruction cost (PhaseExec); LD emits
	// class-loading cost (PhaseLoad).
	RT *emit.Emitter
	LD *emit.Emitter
	// Out receives console output from the Sys intrinsics.
	Out bytes.Buffer

	heapNext     uint64
	prog         *Program // the installed program (Program)
	strings      map[string]uint64
	classObjects map[int]uint64
	threads      []*Thread

	// AllocObjects / AllocBytes count heap allocation activity.
	AllocObjects uint64
	AllocBytes   uint64
	// SyncObjects tracks distinct objects ever locked (the paper's "only
	// ~8% of objects are accessed in synchronized mode" observation).
	SyncObjects map[uint64]struct{}

	// Race, when set (SetRaceHook), observes allocation, access, and
	// synchronization events for dynamic race detection.
	Race RaceHook

	// Checks supplies per-site provability facts and ElideBounds /
	// ElideNull arm them: the engines then skip check work at proven
	// sites (core wires all three from its Config knobs). CheckWatch,
	// when set, re-validates every elided site (the -checkelide
	// oracle). ChecksRun counts dynamic checks actually executed;
	// ChecksElided counts checks skipped on proof.
	Checks       CheckFacts
	ElideBounds  bool
	ElideNull    bool
	CheckWatch   CheckHook
	ChecksRun    uint64
	ChecksElided uint64
}

// New builds a VM emitting to sink with the given synchronization
// manager factory (which receives the VM's runtime emitter).
func New(sink trace.Sink, makeMonitors func(*emit.Emitter) monitor.Manager) *VM {
	rt := emit.New(sink, trace.PhaseExec)
	ld := emit.New(rt.Batch, trace.PhaseLoad)
	v := &VM{
		Mem:         mem.New(),
		Classes:     make(map[string]*bytecode.Class),
		RT:          rt,
		LD:          ld,
		heapNext:    mem.HeapBase,
		strings:     make(map[string]uint64),
		SyncObjects: make(map[uint64]struct{}),
	}
	if makeMonitors == nil {
		makeMonitors = func(em *emit.Emitter) monitor.Manager { return monitor.NewThin(em) }
	}
	v.Monitors = makeMonitors(rt)
	return v
}

// ---------------------------------------------------------------------
// Heap.

// AllocObject allocates an instance of c and returns its reference. The
// emitted template covers the bump-pointer advance, header stores and
// field zeroing.
func (v *VM) AllocObject(c *bytecode.Class) uint64 {
	n := c.InstanceSize()
	size := uint64(headerWords+n) * 8
	ref := v.heapNext
	v.heapNext += size
	v.AllocObjects++
	v.AllocBytes += size
	restore := v.quietly()
	v.Mem.Store(ref, int64(c.ID))
	v.Mem.Store(ref+8, 0)

	s := v.RT.At(pcAlloc)
	s.Load(mem.VMBase + 0x40).ALU(2).Store(mem.VMBase + 0x40) // bump pointer
	s.Store(ref).Store(ref + 8)                               // header
	for i := 0; i < n; i++ {
		a := ref + uint64(headerWords+i)*8
		v.Mem.Store(a, 0)
		s.Store(a)
	}
	s.Ret(0)
	restore()
	if v.Race != nil {
		v.Race.OnAlloc(ref, ref+uint64(headerWords)*8, ref+size, c, 0)
	}
	return ref
}

// AllocArray allocates an array of the element kind and length.
func (v *VM) AllocArray(kind int, length int64) uint64 {
	if length < 0 {
		Throwf("NegativeArraySize", "length %d", length)
	}
	var body uint64
	if kind == bytecode.KindChar {
		body = uint64(length+7) &^ 7
	} else {
		body = uint64(length) * 8
	}
	size := uint64(arrayHeaderWords)*8 + body
	ref := v.heapNext
	v.heapNext += size
	v.AllocObjects++
	v.AllocBytes += size
	restore := v.quietly()
	v.Mem.Store(ref, int64(-(kind + 1)))
	v.Mem.Store(ref+8, 0)
	v.Mem.Store(ref+16, length)

	s := v.RT.At(pcAlloc)
	s.Load(mem.VMBase + 0x40).ALU(2).Store(mem.VMBase + 0x40)
	s.Store(ref).Store(ref + 8).Store(ref + 16)
	// Zeroing loop: one store per line-ish chunk (the allocator zeroes
	// with wide stores; model 8 bytes per store for word arrays, 8 chars
	// per store for char arrays).
	z := v.RT.At(pcZero)
	for off := uint64(0); off < body; off += 8 {
		z.Store(ref + uint64(arrayHeaderWords)*8 + off)
	}
	z.Ret(0)
	restore()
	if v.Race != nil {
		v.Race.OnAlloc(ref, ref+uint64(arrayHeaderWords)*8, ref+size, nil, kind)
	}
	return ref
}

// ClassOf returns the class of an object reference, or nil for arrays.
func (v *VM) ClassOf(ref uint64) *bytecode.Class {
	id := v.Mem.Load(ref)
	if id < 0 || int(id) >= len(v.ClassList) {
		return nil
	}
	return v.ClassList[id]
}

// ArrayKind returns the element kind of an array reference, or -1.
func (v *VM) ArrayKind(ref uint64) int {
	id := v.Mem.Load(ref)
	if id >= 0 {
		return -1
	}
	return int(-id) - 1
}

// ArrayLen returns the length of an array.
func (v *VM) ArrayLen(ref uint64) int64 { return v.Mem.Load(ref + 16) }

// FieldAddr returns the simulated address of field slot of obj.
func FieldAddr(obj uint64, slot int) uint64 {
	return obj + uint64(headerWords+slot)*8
}

// ElemAddr returns the simulated address of element idx of an array of
// the given kind.
func ElemAddr(arr uint64, kind int, idx int64) uint64 {
	base := arr + uint64(arrayHeaderWords)*8
	if kind == bytecode.KindChar {
		return base + uint64(idx)
	}
	return base + uint64(idx)*8
}

// CheckBounds throws on an out-of-range index.
func (v *VM) CheckBounds(arr uint64, idx int64) {
	v.ChecksRun++
	if arr == 0 {
		Throwf("NullPointer", "null dereference")
	}
	n := v.ArrayLen(arr)
	if idx < 0 || idx >= n {
		Throwf("ArrayIndexOutOfBounds", "index %d length %d", idx, n)
	}
}

// CheckNull throws on a null reference.
func (v *VM) CheckNull(ref uint64) {
	v.ChecksRun++
	if ref == 0 {
		Throwf("NullPointer", "null dereference")
	}
}

// ClassObject returns (lazily allocating) the object standing for a
// class, used as the monitor of static synchronized methods.
func (v *VM) ClassObject(c *bytecode.Class) uint64 {
	if v.classObjects == nil {
		v.classObjects = make(map[int]uint64)
	}
	if ref, ok := v.classObjects[c.ID]; ok {
		return ref
	}
	// A bare two-word header object.
	ref := v.heapNext
	v.heapNext += ObjHeaderBytes
	v.AllocObjects++
	v.AllocBytes += ObjHeaderBytes
	restore := v.quietly()
	v.Mem.Store(ref, int64(c.ID))
	v.Mem.Store(ref+8, 0)
	restore()
	if v.Race != nil {
		v.Race.OnAlloc(ref, ref+ObjHeaderBytes, ref+ObjHeaderBytes, c, 0)
	}
	v.classObjects[c.ID] = ref
	return ref
}

// ---------------------------------------------------------------------
// Strings: interned char arrays.

// Intern returns (allocating on first use) the char-array object holding
// the literal s.
func (v *VM) Intern(s string) uint64 {
	if ref, ok := v.strings[s]; ok {
		return ref
	}
	ref := v.AllocArray(bytecode.KindChar, int64(len(s)))
	restore := v.quietly()
	for i := 0; i < len(s); i++ {
		v.Mem.StoreByte(ElemAddr(ref, bytecode.KindChar, int64(i)), s[i])
	}
	restore()
	if v.Race != nil {
		v.Race.OnIntern(ref)
	}
	seq := v.RT.At(pcIntern)
	for i := 0; i < len(s); i += 8 {
		seq.Store(ElemAddr(ref, bytecode.KindChar, int64(i)))
	}
	seq.Ret(0)
	v.strings[s] = ref
	return ref
}

// GoString reads a char array back into a Go string.
func (v *VM) GoString(ref uint64) string {
	if ref == 0 {
		return "<null>"
	}
	n := v.ArrayLen(ref)
	b := make([]byte, n)
	for i := int64(0); i < n; i++ {
		b[i] = v.Mem.LoadByte(ElemAddr(ref, bytecode.KindChar, i))
	}
	return string(b)
}

// ---------------------------------------------------------------------
// Console intrinsics.

// PrintString writes a char array to Out, charging per-character cost.
func (v *VM) PrintString(ref uint64) {
	s := v.GoString(ref)
	v.Out.WriteString(s)
	seq := v.RT.At(pcPrint)
	for i := 0; i < len(s); i++ {
		seq.Load(ElemAddr(ref, bytecode.KindChar, int64(i))).ALU(1).Store(mem.VMBase + 0x80)
	}
	seq.Ret(0)
}

// PrintInt writes a decimal integer to Out.
func (v *VM) PrintInt(x int64) {
	fmt.Fprintf(&v.Out, "%d", x)
	v.RT.At(pcPrint).ALU(12).Store(mem.VMBase + 0x80).Ret(0)
}

// PrintFloat writes a float to Out.
func (v *VM) PrintFloat(f float64) {
	fmt.Fprintf(&v.Out, "%g", f)
	v.RT.At(pcPrint).FPU(6).ALU(8).Store(mem.VMBase + 0x80).Ret(0)
}

// PrintChar writes one character.
func (v *VM) PrintChar(c int64) {
	v.Out.WriteByte(byte(c))
	v.RT.At(pcPrint).ALU(2).Store(mem.VMBase + 0x80).Ret(0)
}

// ---------------------------------------------------------------------
// Float bit conversions: operand slots are int64; floats travel as bits.

// F2Bits converts a float value to its slot representation.
func F2Bits(f float64) int64 { return int64(math.Float64bits(f)) }

// Bits2F converts a slot representation back to a float.
func Bits2F(b int64) float64 { return math.Float64frombits(uint64(b)) }

// ---------------------------------------------------------------------
// Footprint accounting (Table 1).

// FootprintBytes returns the simulated resident set: memory pages plus
// the loaded-class metadata estimate.
func (v *VM) FootprintBytes() uint64 { return v.Mem.FootprintBytes() }

// ---------------------------------------------------------------------
// Code-cache and metadata layout shared with the JIT and native CPU.

// StubBase is the start of the per-method entry-stub region in the code
// cache. Every method — compiled or not — owns one stub; calls in
// generated code always target stubs, and the native CPU traps on them so
// the mixed-mode trampoline can decide how to run the callee.
const StubBase = mem.CodeCacheBase

// StubStride is the byte distance between stubs.
const StubStride = 16

// CodeArea is where translated method bodies are installed.
const CodeArea = mem.CodeCacheBase + 0x10_0000

// TrapPC is the address generated code branches to on a failed runtime
// check (bounds, null); the native CPU converts arrival there into a
// runtime error.
const TrapPC = mem.RuntimeBase + 0xF000

// StubAddr returns the entry-stub address of method id.
func StubAddr(methodID int) uint64 {
	return StubBase + uint64(methodID)*StubStride
}

// MethodIDForStub inverts StubAddr, returning -1 for non-stub addresses.
func MethodIDForStub(addr uint64) int {
	if addr < StubBase || addr >= CodeArea {
		return -1
	}
	if (addr-StubBase)%StubStride != 0 {
		return -1
	}
	return int((addr - StubBase) / StubStride)
}

// PoolFloatAddr returns the simulated address of float-pool entry i of c.
func PoolFloatAddr(c *bytecode.Class, i int32) uint64 {
	return c.PoolBase + uint64(i)*8
}

// PoolStringAddr returns the simulated address of string-pool entry i of
// c (the word holds the interned char-array reference).
func PoolStringAddr(c *bytecode.Class, i int32) uint64 {
	return c.PoolBase + uint64(len(c.Pool.Floats)+int(i))*8
}

// VTableEntryAddr returns the simulated address of a class's vtable slot
// in the metadata area; the loader stores method stub addresses there and
// generated virtual-dispatch code loads them.
func VTableEntryAddr(classID, vindex int) uint64 {
	return mem.VMBase + 0x200_0000 + uint64(classID)*4096 + uint64(vindex)*8
}

// LockObject records and forwards a monitorenter.
func (v *VM) LockObject(tid int, ref uint64) bool {
	v.CheckNull(ref)
	v.SyncObjects[ref] = struct{}{}
	ok := v.Monitors.Enter(tid, ref)
	if ok && v.Race != nil {
		v.Race.OnAcquire(tid, ref)
	}
	return ok
}

// UnlockObject forwards a monitorexit.
func (v *VM) UnlockObject(tid int, ref uint64) {
	v.CheckNull(ref)
	if v.Race != nil {
		v.Race.OnRelease(tid, ref)
	}
	v.Monitors.Exit(tid, ref)
}
