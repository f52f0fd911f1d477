package minijava

import (
	"slices"

	"jrs/internal/bytecode"
)

// Compile parses, checks and lowers one MiniJava source file, returning
// the bytecode classes (with the Sys intrinsic class appended).
func Compile(file, src string) ([]*bytecode.Class, error) {
	return CompileSources(map[string]string{file: src})
}

// CompileSources compiles a multi-file program as one compilation unit.
// Files are processed in lexically sorted name order so class ids and
// layouts are deterministic.
func CompileSources(sources map[string]string) ([]*bytecode.Class, error) {
	prog := &Program{}
	for _, name := range sortedKeys(sources) {
		p, err := Parse(name, sources[name])
		if err != nil {
			return nil, err
		}
		prog.Classes = append(prog.Classes, p.Classes...)
	}
	if err := Check(prog); err != nil {
		return nil, err
	}
	return Generate(prog)
}

// MustCompile is Compile that panics on error, for static program
// definitions (the embedded workloads).
func MustCompile(file, src string) []*bytecode.Class {
	classes, err := Compile(file, src)
	if err != nil {
		panic(err)
	}
	return classes
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
