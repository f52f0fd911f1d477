package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// multiGolden names the experiments whose golden render covers more
// programs than hello (goldenOpts in internal/harness/golden_test.go);
// their hello-only renders are covered by the pinned digests instead.
var multiGolden = map[string]bool{
	"ablate-devirt": true, "ablate-elide": true, "ablate-checks": true, "ablate-codecache": true,
}

// gateCold checks a cold pass against the repository's goldens: every
// hello-only experiment section byte for byte, and the plain analysis
// report against analyze.txt. A dist pass must also render the same
// from its warm cache as cold.
func gateCold(root string, in *inputs, p *pass) []string {
	var errs []string
	if in.def.dist && p.warm != p.out {
		errs = append(errs, "dist warm output differs from cold output")
	}
	if len(in.programs) != 1 || in.programs[0].Name != "hello" {
		return errs
	}
	dir := filepath.Join(root, "internal", "harness", "testdata", "golden")
	check := func(section, file string) {
		want, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			errs = append(errs, fmt.Sprintf("golden %s: %v", file, err))
		} else if p.sections[section] != string(want) {
			errs = append(errs, fmt.Sprintf("section %s differs from golden %s", section, file))
		}
	}
	for _, u := range in.units() {
		if name := in.exps[u.exp].Name; !multiGolden[name] {
			check(sectionName(in, u), name+".txt")
		}
	}
	if in.def.analyze {
		check(analyzeSection(1), "analyze.txt")
	}
	return errs
}

// gatePass checks a timed pass against the same process's cold pass.
func gatePass(in *inputs, n int, cold, p *pass) []string {
	var errs []string
	if p.digest() != cold.digest() {
		errs = append(errs, fmt.Sprintf("pass %d output differs from the cold pass", n))
	}
	if in.def.dist && p.warm != p.out {
		errs = append(errs, fmt.Sprintf("pass %d: dist warm output differs from cold output", n))
	}
	return errs
}

func loadExpected(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]string{}, nil
	}
	if err != nil {
		return nil, err
	}
	m := map[string]string{}
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// checkPinned compares a run's digest with the one pinned for its
// workload and seed, when there is one.
func checkPinned(o options, workload, digest string, res *result) {
	want, err := loadExpected(o.expected)
	if err != nil {
		res.fail("%v", err)
		return
	}
	label := o.label(workload)
	if pinned, ok := want[label]; ok && pinned != digest {
		res.fail("digest %s differs from the one pinned for %s (%s)", digest, label, pinned)
	}
}

// recordDigests runs each workload's cold pass serially (one runner
// worker, one jrsd worker), checks it against the goldens and pins its
// digest for the seed.
func recordDigests(o options, selected []workloadDef, stdout, stderr io.Writer) int {
	want, err := loadExpected(o.expected)
	if err != nil {
		fmt.Fprintf(stderr, "jrsbench: %v\n", err)
		return 1
	}
	e, err := newEnv(o.root)
	if err != nil {
		fmt.Fprintf(stderr, "jrsbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.work)
	for _, d := range selected {
		in, err := newInputs(d, o.seed)
		if err != nil {
			fmt.Fprintf(stderr, "jrsbench: %v\n", err)
			return 1
		}
		p, err := runPass(e, in, 0, 1)
		if err != nil {
			fmt.Fprintf(stderr, "jrsbench: %s: %v\n", d.name, err)
			return 1
		}
		if errs := gateCold(o.root, in, p); len(errs) > 0 {
			for _, msg := range errs {
				fmt.Fprintf(stderr, "jrsbench: %s: %s\n", d.name, msg)
			}
			return 1
		}
		want[o.label(d.name)] = p.digest()
		fmt.Fprintf(stdout, "%s %s\n", o.label(d.name), p.digest())
	}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "jrsbench: %v\n", err)
		return 1
	}
	if err := os.WriteFile(o.expected, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(stderr, "jrsbench: %v\n", err)
		return 1
	}
	return 0
}
