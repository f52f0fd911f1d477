// Command mjc compiles MiniJava source files into a binary class bundle
// executable with `jrs run prog.jrsc`.
//
// Usage:
//
//	mjc -o prog.jrsc main.mj [more.mj ...]
package main

import (
	"flag"
	"fmt"
	"os"

	"jrs/internal/classfile"
	"jrs/internal/minijava"
)

func main() {
	out := flag.String("o", "out.jrsc", "output bundle path")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mjc [-o out.jrsc] file.mj [file.mj ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	sources := make(map[string]string)
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fatalf("%v", err)
		}
		sources[path] = string(src)
	}
	classes, err := minijava.CompileSources(sources)
	if err != nil {
		fatalf("%v", err)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatalf("%v", err)
	}
	defer f.Close()
	if err := classfile.Write(f, classes); err != nil {
		fatalf("write %s: %v", *out, err)
	}
	methods := 0
	for _, c := range classes {
		methods += len(c.Methods)
	}
	fmt.Fprintf(os.Stderr, "mjc: wrote %s (%d classes, %d methods)\n",
		*out, len(classes), methods)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mjc: "+format+"\n", args...)
	os.Exit(1)
}
