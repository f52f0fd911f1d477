package main

import (
	"fmt"
	"hash/fnv"
	"strings"

	"jrs/internal/harness"
	"jrs/internal/workloads"
)

// program is one input program of a workload and its base scale. A base
// of 0 pins the program at scale 1 (hello has no size parameter).
type program struct {
	name string
	base int
}

// workloadDef is one benchmark workload: which registered experiments a
// pass runs over which programs, and what else the pass does. The
// reasons for each choice are in bench/README.md and BENCHMARK.json.
type workloadDef struct {
	name     string
	exps     []string // registry names; nil = the whole registry
	programs []program
	// analyze adds the two whole-program analyses of `jrs analyze` over
	// all eight programs to every pass.
	analyze bool
	// dist submits the pass to a loopback jrsd coordinator (cold, then
	// warm from its result cache) instead of running it locally.
	dist bool
}

var defs = []workloadDef{
	{name: "ooo", exps: []string{"fig9"},
		programs: []program{{"javac", 6}, {"mtrt", 5}, {"jess", 8}}},
	{name: "cachesim", exps: []string{"table2", "table3", "fig3", "fig7"},
		programs: []program{{"jess", 12}, {"javac", 10}, {"mtrt", 8}}},
	{name: "startup", programs: []program{{"hello", 0}}, analyze: true},
	{name: "dist", programs: []program{{"hello", 0}}, dist: true},
}

// splitmix64 is the standard 64-bit finalizing mixer.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw is the seed generator: a deterministic 64-bit value for one named
// decision under one seed.
func draw(seed uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return splitmix64(seed ^ splitmix64(h.Sum64()))
}

// unit is one (experiment, program instance) plan of a pass. Plans are
// built per unit so that the submission order can change from pass to
// pass while the canonical render, and so the output digest, cannot.
type unit struct {
	exp  int // index into inputs.exps
	prog int // index into inputs.programs
}

// inputs is everything a seed generates for one workload. The programs
// receive nothing else: the scale reaches them as the BenchN of a
// workload copy passed through Options{Quick: true}.
type inputs struct {
	def      workloadDef
	seed     uint64
	programs []workloads.Workload // canonical order
	exps     []harness.Experiment // canonical (registry) order
}

// newInputs draws the inputs of def under seed. Every sized program runs
// as an antithetic pair: a scale s drawn from round([0.8,1.2]×base) with
// s ≠ base, and its mirror 2×base−s. The pair changes the inputs with
// the seed while keeping the pass's total work close to constant, which
// is what lets per-pass times from different seeds be compared.
func newInputs(def workloadDef, seed uint64) (*inputs, error) {
	in := &inputs{def: def, seed: seed}
	for _, p := range def.programs {
		w, ok := workloads.ByName(p.name)
		if !ok {
			return nil, fmt.Errorf("unknown program %q", p.name)
		}
		if p.base == 0 {
			w.BenchN = 1
			in.programs = append(in.programs, w)
			continue
		}
		span := (p.base + 2) / 5 // round(0.2 × base)
		if span < 1 {
			span = 1
		}
		d := 1 + int(draw(seed, def.name+"/scale/"+p.name)%uint64(span))
		for _, n := range []int{p.base - d, p.base + d} {
			c := w
			c.BenchN = n
			in.programs = append(in.programs, c)
		}
	}
	if def.exps == nil {
		in.exps = harness.Experiments()
	} else {
		for _, name := range def.exps {
			e, ok := harness.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("unknown experiment %q", name)
			}
			in.exps = append(in.exps, e)
		}
	}
	return in, nil
}

// units returns the pass's plans in canonical order.
func (in *inputs) units() []unit {
	var us []unit
	for e := range in.exps {
		for p := range in.programs {
			us = append(us, unit{e, p})
		}
	}
	return us
}

// order returns the submission order of pass number pass: a seeded
// permutation of the canonical units (Fisher-Yates over draw).
func (in *inputs) order(pass int) []unit {
	us := in.units()
	for i := len(us) - 1; i > 0; i-- {
		j := int(draw(in.seed, fmt.Sprintf("%s/order/%d/%d", in.def.name, pass, i)) % uint64(i+1))
		us[i], us[j] = us[j], us[i]
	}
	return us
}

// opts returns the harness options of one unit.
func (in *inputs) opts(u unit) harness.Options {
	return harness.Options{Quick: true, Workloads: []workloads.Workload{in.programs[u.prog]}}
}

// String prints the generated inputs.
func (in *inputs) String() string {
	var ps []string
	for _, w := range in.programs {
		ps = append(ps, fmt.Sprintf("%s@%d", w.Name, w.BenchN))
	}
	var first []string
	for _, u := range in.order(0) {
		first = append(first, fmt.Sprintf("%s/%s@%d", in.exps[u.exp].Name, in.programs[u.prog].Name, in.programs[u.prog].BenchN))
	}
	return fmt.Sprintf("programs=%s pass0-order=%s", strings.Join(ps, ","), strings.Join(first, ","))
}
