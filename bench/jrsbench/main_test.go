package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// root is the repository root seen from this package's directory.
const root = "../.."

// TestMain lets the test binary stand in for the benchmark's measuring
// child processes: a run started by a test re-executes this binary with
// the child marker set.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestSeedDeterministic(t *testing.T) {
	for _, d := range defs {
		a, err := newInputs(d, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newInputs(d, 7)
		if a.String() != b.String() || fmt.Sprint(a.order(5)) != fmt.Sprint(b.order(5)) {
			t.Errorf("%s: seed 7 generated different inputs twice", d.name)
		}
		if fmt.Sprint(a.order(1)) == fmt.Sprint(a.order(2)) {
			t.Errorf("%s: passes 1 and 2 submit in the same order", d.name)
		}
		c, _ := newInputs(d, 8)
		if a.String() == c.String() {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", d.name)
		}
	}
}

// TestAntitheticScales: each sized program runs at a pair of distinct
// scales mirrored around its base, within [0.8, 1.2] of it.
func TestAntitheticScales(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		for _, d := range defs {
			in, err := newInputs(d, seed)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for _, p := range d.programs {
				if p.base == 0 {
					i++
					continue
				}
				lo, hi := in.programs[i].BenchN, in.programs[i+1].BenchN
				if lo+hi != 2*p.base || lo == hi || 5*lo < 4*p.base-2 || 5*hi > 6*p.base+2 {
					t.Errorf("%s seed %d: %s scales %d,%d around base %d", d.name, seed, p.name, lo, hi, p.base)
				}
				i += 2
			}
		}
	}
}

// TestSmoke runs every workload on hello only, one timed pass per
// child, untraced and traced, and checks that every metric
// BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	bench, err := loadBenchmark(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, trace := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-hello", "-seconds", "0", "-trace", trace, "-root", root}, &out, &errOut); code != 0 {
			t.Fatalf("-trace %s: exit %d\n%s\n%s", trace, code, out.String(), errOut.String())
		}
		units := map[string]string{}
		for _, m := range bench.EndToEnd {
			if trace == "0" {
				units[m.Name] = m.Unit
			}
		}
		for _, m := range bench.PerLayer {
			if trace == "1" {
				units[m.Name] = m.Unit
			}
		}
		printed := map[string]string{}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		for _, l := range lines {
			if f := strings.Fields(l); len(f) >= 4 {
				printed[f[0]+" "+f[1]] = f[3]
			}
		}
		for _, w := range bench.Workloads {
			for name, unit := range units {
				if got, ok := printed[w.Name+" "+name]; !ok || got != unit {
					t.Errorf("-trace %s: %s %s printed with unit %q, want %q", trace, w.Name, name, got, unit)
				}
			}
		}
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not JSON: %v", err)
		}
		if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
			t.Errorf("last line keys: %s", lines[len(lines)-1])
		}
	}
}

// TestTamperedDigestFails: a run whose output no longer matches the
// pinned digest fails, and passes again with the true digest.
func TestTamperedDigestFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "expected.json")
	args := []string{"-hello", "-workload", "ooo", "-root", root, "-expected", path}
	var out, errOut bytes.Buffer
	if code := run(append(args, "-record"), &out, &errOut); code != 0 {
		t.Fatalf("record: exit %d\n%s", code, errOut.String())
	}
	pinned, err := loadExpected(path)
	if err != nil {
		t.Fatal(err)
	}
	good := pinned["ooo/1/hello"]
	if len(good) != 64 {
		t.Fatalf("recorded digest %q", good)
	}
	for _, c := range []struct {
		digest string
		code   int
	}{{good, 0}, {strings.Repeat("0", 64), 1}} {
		data, _ := json.Marshal(map[string]string{"ooo/1/hello": c.digest})
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		if code := run(append(args, "-seconds", "0"), &out, &errOut); code != c.code {
			t.Errorf("pinned %s…: exit %d, want %d\n%s", c.digest[:8], code, c.code, out.String())
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, want 2.75, 8.25", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	m := boundedMetric{Name: "wall_s", Better: "lower", Bound: 0.1}
	steady := func(v float64) side { return side{values: []float64{v, v, v, v}} }
	for _, c := range []struct {
		a, b side
		want string
	}{
		{steady(1), steady(1.05), "within-bound"},
		{steady(1), steady(1.2), "worse"},
		{steady(1), steady(0.8), "better"},
		{side{values: []float64{1, 1.5, 0.6, 1.2}}, steady(1), "unresolved"},
		{side{values: []float64{1, 1.5, 0.6, 1.2}}, steady(0.5), "better"},
	} {
		if got, _ := verdict(m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a.values, c.b.values, got, c.want)
		}
	}
}
