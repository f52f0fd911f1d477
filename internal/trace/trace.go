// Package trace defines the native-instruction event stream that every
// architectural simulator in this repository consumes.
//
// It plays the role Shade played in the paper: each simulated native
// instruction retired by any execution engine (interpreter templates, JIT
// translator, JIT-generated code, AOT code) is emitted exactly once as an
// Inst record to a Sink. Simulators (instruction-mix counters, cache
// models, branch predictors, the superscalar pipeline) attach as sinks and
// observe the same stream a hardware tracer would.
package trace

// Class is the architectural class of a native instruction. The classes
// mirror the categories the paper reports in its instruction-mix study
// (Figure 2): ALU, FPU, loads, stores, conditional branches, direct
// jumps/calls, returns, and register-indirect jumps/calls.
type Class uint8

const (
	// ALU is an integer arithmetic/logic instruction.
	ALU Class = iota
	// FPU is a floating-point instruction.
	FPU
	// Load is a memory read; Inst.Addr holds the effective address.
	Load
	// Store is a memory write; Inst.Addr holds the effective address.
	Store
	// Branch is a conditional direct branch; Taken and Target are valid.
	Branch
	// Jump is an unconditional direct jump; Target is valid.
	Jump
	// Call is a direct call; Target is valid.
	Call
	// Ret is a function return (indirect transfer through the link
	// register); Target is valid.
	Ret
	// IndirectJump is a register-indirect jump (e.g. the interpreter's
	// switch dispatch); Target is valid.
	IndirectJump
	// IndirectCall is a register-indirect call (e.g. a virtual method
	// dispatch through a table); Target is valid.
	IndirectCall
	// NumClasses is the number of instruction classes.
	NumClasses
)

// String returns the lower-case mnemonic name of the class.
func (c Class) String() string {
	switch c {
	case ALU:
		return "alu"
	case FPU:
		return "fpu"
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	case Jump:
		return "jump"
	case Call:
		return "call"
	case Ret:
		return "ret"
	case IndirectJump:
		return "ijump"
	case IndirectCall:
		return "icall"
	}
	return "unknown"
}

// IsMem reports whether the class accesses data memory.
func (c Class) IsMem() bool { return c == Load || c == Store }

// IsControl reports whether the class is a control transfer.
func (c Class) IsControl() bool { return c >= Branch && c <= IndirectCall }

// IsIndirect reports whether the transfer target comes from a register
// (unpredictable without a BTB-style structure).
func (c Class) IsIndirect() bool {
	return c == Ret || c == IndirectJump || c == IndirectCall
}

// Phase tags which part of the runtime produced an instruction, so the
// cache studies can isolate the translate portion of JIT execution the way
// the paper does in Figure 5.
type Phase uint8

const (
	// PhaseExec covers application execution: interpreter dispatch and
	// handlers, JIT-generated code, AOT code, and runtime services called
	// on their behalf.
	PhaseExec Phase = iota
	// PhaseTranslate covers the JIT translator: bytecode walking, code
	// generation and installation.
	PhaseTranslate
	// PhaseLoad covers class loading and resolution.
	PhaseLoad
	// NumPhases is the number of phases.
	NumPhases
)

// String returns the name of the phase.
func (p Phase) String() string {
	switch p {
	case PhaseExec:
		return "exec"
	case PhaseTranslate:
		return "translate"
	case PhaseLoad:
		return "load"
	}
	return "unknown"
}

// Inst is one retired native instruction. It carries everything the
// downstream simulators need: the PC (for the I-cache and predictors), the
// class, the effective address for memory operations, the control-flow
// target and outcome, and the architectural registers for dependence
// modeling in the pipeline simulator.
type Inst struct {
	// PC is the address of the instruction itself.
	PC uint64
	// Addr is the effective data address for Load/Store.
	Addr uint64
	// Target is the (resolved) destination for control transfers.
	Target uint64
	// Class is the architectural class.
	Class Class
	// Phase tags the producing runtime component.
	Phase Phase
	// Taken reports the outcome for conditional branches (always true
	// for unconditional transfers).
	Taken bool
	// Src1, Src2 and Dst are architectural register numbers (RegNone if
	// unused) used by the pipeline model for dependences.
	Src1, Src2, Dst uint8
}

// RegNone marks an unused register slot in an Inst.
const RegNone uint8 = 0xFF

// Sink receives the instruction stream in program order per simulated
// core. EmitBatch is the delivery path: it receives one or more
// instructions, and the slice is only valid for the duration of the call
// (the transport reuses its buffer), so implementations must not retain
// it. Emit delivers a single instruction and must behave exactly like
// EmitBatch of a one-element batch; the simulator sinks implement it as
// that call, so their logic exists once.
//
// Batch boundaries carry no meaning: a stream delivered as any
// partition into batches must produce byte-identical simulation results.
// Flush points at phase switches, engine mode switches and end-of-run
// only affect *when* instructions arrive, never their order or content.
type Sink interface {
	Emit(Inst)
	EmitBatch([]Inst)
}

// Discard is a Sink that drops every instruction. Useful for running an
// engine purely for its architectural side counters.
var Discard Sink = discard{}

type discard struct{}

// Emit implements Sink by dropping the instruction.
func (discard) Emit(Inst) {}

// EmitBatch implements Sink by dropping the batch.
func (discard) EmitBatch([]Inst) {}

// Tee fans the stream out to several sinks in order. A nil or Discard
// entry is skipped, and a member that is itself a Tee is flattened: its
// members are inlined in place, so arbitrarily nested Tee construction
// always yields a single fan-out level (one dispatch per member per
// batch, not one per nesting level). Tee of zero or one live sinks
// collapses to the trivial sink.
func Tee(sinks ...Sink) Sink {
	live := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		switch m := s.(type) {
		case nil:
			continue
		case discard:
			continue
		case *tee:
			live = append(live, m.sinks...)
		default:
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return Discard
	case 1:
		return live[0]
	}
	return &tee{sinks: live}
}

type tee struct{ sinks []Sink }

// Emit implements Sink.
func (t *tee) Emit(i Inst) { t.EmitBatch([]Inst{i}) }

// EmitBatch implements Sink, fanning the whole batch to every member.
func (t *tee) EmitBatch(batch []Inst) {
	for _, s := range t.sinks {
		EmitBatchTo(s, batch)
	}
}

// Switchable is a Sink whose destination can be swapped mid-run. The
// harness uses it to exclude phases from measurement — e.g. the AOT
// ("C/C++-like") configuration precompiles every method while S is nil
// and only then attaches the simulators, so the measured trace contains
// pure native execution the way a compiled C program's would.
type Switchable struct{ S Sink }

// Emit implements Sink.
func (s *Switchable) Emit(i Inst) { s.EmitBatch([]Inst{i}) }

// EmitBatch implements Sink. Engines flush their transport before
// the destination is swapped, so a batch is never split across two
// destinations and the swap point stays an exact observation boundary.
func (s *Switchable) EmitBatch(batch []Inst) {
	if s.S != nil {
		EmitBatchTo(s.S, batch)
	}
}

// Counter is a Sink that accumulates the instruction-mix statistics the
// paper reports in Figure 2, split by phase. Only the full
// (class, phase) matrix is maintained on the hot path — one increment
// per instruction — and the per-class / per-phase marginals are summed
// from it on demand.
type Counter struct {
	// Total is the number of instructions observed.
	Total uint64
	// ByClassPhase counts instructions per (class, phase).
	ByClassPhase [NumClasses][NumPhases]uint64
}

// Emit implements Sink.
func (c *Counter) Emit(i Inst) { c.EmitBatch([]Inst{i}) }

// EmitBatch implements Sink, accumulating the whole batch with one
// dispatch.
func (c *Counter) EmitBatch(batch []Inst) {
	c.Total += uint64(len(batch))
	for i := range batch {
		in := &batch[i]
		c.ByClassPhase[in.Class][in.Phase]++
	}
}

// ByClass returns the number of instructions observed in class cl.
func (c *Counter) ByClass(cl Class) uint64 {
	var n uint64
	for p := Phase(0); p < NumPhases; p++ {
		n += c.ByClassPhase[cl][p]
	}
	return n
}

// ByPhase returns the number of instructions observed in phase p.
func (c *Counter) ByPhase(p Phase) uint64 {
	var n uint64
	for cl := Class(0); cl < NumClasses; cl++ {
		n += c.ByClassPhase[cl][p]
	}
	return n
}

// Reset zeroes the counter.
func (c *Counter) Reset() { *c = Counter{} }

// Frac returns the fraction of the stream in class cl, or 0 when empty.
func (c *Counter) Frac(cl Class) float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.ByClass(cl)) / float64(c.Total)
}

// MemFrac returns the fraction of instructions that access data memory.
func (c *Counter) MemFrac() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.ByClass(Load)+c.ByClass(Store)) / float64(c.Total)
}

// ControlFrac returns the fraction of instructions that transfer control.
func (c *Counter) ControlFrac() float64 {
	if c.Total == 0 {
		return 0
	}
	var n uint64
	for cl := Branch; cl <= IndirectCall; cl++ {
		n += c.ByClass(cl)
	}
	return float64(n) / float64(c.Total)
}

// IndirectFrac returns the fraction of instructions that are indirect
// control transfers (returns, indirect jumps, indirect calls).
func (c *Counter) IndirectFrac() float64 {
	if c.Total == 0 {
		return 0
	}
	n := c.ByClass(Ret) + c.ByClass(IndirectJump) + c.ByClass(IndirectCall)
	return float64(n) / float64(c.Total)
}
