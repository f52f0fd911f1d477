package main

import (
	"bytes"
	"strings"
	"testing"
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
