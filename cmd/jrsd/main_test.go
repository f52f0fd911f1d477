package main

import (
	"bytes"
	"strings"
	"testing"

	"jrs/internal/harness"
	"jrs/internal/workloads"
)

// TestUsageErrors pins jrsd's exit-2 inputs: each is refused before a
// coordinator starts or a worker dials.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"inproc", "-chaos", "seed=1,corrupt=0.5", "fig2"}, "corrupt= is not supported"},
		{[]string{"worker", "-connect", "127.0.0.1:1", "-chaos", "corrupt=1"}, "corrupt= is not supported"},
		{[]string{"inproc", "-resume", "fig2"}, "-resume requires -cachedir"},
		{[]string{"worker"}, "worker requires -connect"},
		{[]string{"frobnicate"}, `unknown command "frobnicate"`},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(errb.String(), tc.msg) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, errb.String(), tc.msg)
		}
	}
}

// TestInprocGridOptionsMatchJrs: -scale and -checkpipe reach the
// submitted grid. jrsd inproc with one worker prints exactly what jrs
// prints for one experiment under the same flags (a local Runner, then
// SafeRender), and the scale visibly changes the result.
func TestInprocGridOptionsMatchJrs(t *testing.T) {
	args := []string{"inproc", "-workers", "1", "-w", "hello", "-scale", "4000", "-checkpipe", "fig9"}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d\n%s", args, code, errb.String())
	}
	hello, _ := workloads.ByName("hello")
	exp, _ := harness.Lookup("fig9")
	jrs := func(scale int) string {
		runner := &harness.Runner{}
		r, err := exp.RunWith(harness.Options{Scale: scale, CheckPipe: true, Workloads: []workloads.Workload{hello}}, runner)
		if err != nil {
			t.Fatal(err)
		}
		return runner.SafeRender(r)
	}
	if want := jrs(4000); out.String() != want {
		t.Errorf("jrsd inproc output differs from jrs:\n%s\nwant:\n%s", out.String(), want)
	}
	if out.String() == jrs(0) {
		t.Error("-scale 4000 renders like the default scale: the flag did not reach the grid")
	}
}
