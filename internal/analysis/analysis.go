// Package analysis is the runtime's static-analysis framework over
// bytecode method bodies — the functional analogue of the JVM verifier
// the paper's runtimes ran at class-load time, factored so the class
// loader, the JIT compiler and the `jrs lint` front-end share one
// implementation.
//
// The package is layered:
//
//   - BuildCFG partitions a method body into basic blocks with
//     successor/predecessor edges and a reverse-postorder numbering;
//   - Solve is a generic forward worklist engine running any Flow
//     problem over that graph to a fixed point;
//   - concrete passes built on the two: stack-type verification
//     (TypeFlow, shared with the JIT's register assigner), reachability
//     (dead-code detection), definite assignment of locals, and
//     monitor balance (MonitorEnter/MonitorExit pairing along all
//     paths — the lock discipline §5 of the paper studies dynamically).
//
// CheckMethod runs every pass and returns deterministic diagnostics;
// severity Error marks code the runtime should refuse to admit,
// severity Warning marks suspicious-but-executable code (our frames
// are zero-initialized, so e.g. unreachable blocks cannot corrupt a
// run but still indicate a compiler bug).
package analysis

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"jrs/internal/bytecode"
)

// posError is an analysis error anchored at a bytecode pc, so pass
// wrappers can place diagnostics precisely.
type posError struct {
	pc  int
	msg string
}

// Error implements error.
func (e *posError) Error() string { return e.msg }

// errPC extracts the anchored pc of an analysis error (0 if none).
func errPC(err error) int {
	var pe *posError
	if errors.As(err, &pe) {
		return pe.pc
	}
	return 0
}

// Severity classifies a diagnostic.
type Severity uint8

const (
	// Warning marks code that executes safely under this runtime but
	// would not survive a strict JVM verifier (dead blocks, …).
	Warning Severity = iota
	// Error marks code the loader must reject in full-verification mode.
	Error
)

// String returns the lint-report spelling.
func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Diagnostic is one finding, addressable to a method and bytecode pc.
type Diagnostic struct {
	// Method is the method's FullName (Class.Name + sig).
	Method string
	// PC is the instruction index the finding anchors to.
	PC int
	// Pass names the producing pass.
	Pass string
	// Sev is the severity.
	Sev Severity
	// Msg is the human-readable description.
	Msg string
}

// String renders the diagnostic in the fixed report form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s @%d: [%s] %s: %s", d.Method, d.PC, d.Pass, d.Sev, d.Msg)
}

// A pass analyzes one method over its control-flow graph.
type pass struct {
	name string
	run  func(c *bytecode.Class, m *bytecode.Method, g *Graph) []Diagnostic
}

// Passes run in this order; each is independent of the others' output.
var passes = []pass{
	{"typecheck", typecheckPass},
	{"reachability", reachabilityPass},
	{"definite-assignment", definiteAssignmentPass},
	{"monitor-balance", monitorBalancePass},
}

// PassNames returns the registered pass names in execution order.
func PassNames() []string {
	names := make([]string, len(passes))
	for i, p := range passes {
		names[i] = p.name
	}
	return names
}

// CheckMethod runs every pass over m and returns its findings sorted by
// (pc, pass). The class must have a resolved constant pool (vm.Link
// resolves it, and runs CheckMethod over every method it links). Structural validity
// (bytecode.Verify) is a precondition: structurally broken bodies are
// reported as a single "cfg" diagnostic.
func CheckMethod(c *bytecode.Class, m *bytecode.Method) []Diagnostic {
	if err := bytecode.Verify(c, m); err != nil {
		return []Diagnostic{{Method: m.FullName(), PC: 0, Pass: "structure",
			Sev: Error, Msg: err.Error()}}
	}
	g, err := BuildCFG(m)
	if err != nil {
		return []Diagnostic{{Method: m.FullName(), PC: 0, Pass: "cfg",
			Sev: Error, Msg: err.Error()}}
	}
	var out []Diagnostic
	for _, p := range passes {
		out = append(out, p.run(c, m, g)...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].PC != out[j].PC {
			return out[i].PC < out[j].PC
		}
		return out[i].Pass < out[j].Pass
	})
	return out
}

// Errors filters diags down to Error severity.
func Errors(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if d.Sev == Error {
			out = append(out, d)
		}
	}
	return out
}

// Render formats diagnostics one per line (byte-deterministic for a
// fixed input order).
func Render(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// MaxStackDepth returns the deepest operand stack a TypeFlow result
// proves the method reaches.
func MaxStackDepth(types [][]bytecode.Type) int {
	max := 0
	for _, s := range types {
		if len(s) > max {
			max = len(s)
		}
	}
	return max
}
