package minijava_test

import (
	"fmt"
	"testing"

	"jrs/internal/core"
	"jrs/internal/minijava"
)

// evalInt compiles `Sys.printi(<expr>);` and returns the printed value.
func evalInt(t *testing.T, expr string) string {
	t.Helper()
	src := fmt.Sprintf(`class Main { static void main() { Sys.printi(%s); } }`, expr)
	classes, err := minijava.Compile("p.mj", src)
	if err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	e := core.New(core.Config{})
	if err := e.VM.Load(classes); err != nil {
		t.Fatal(err)
	}
	m, _ := e.VM.LookupMain()
	if err := e.Run(m); err != nil {
		t.Fatalf("%s: %v", expr, err)
	}
	return e.VM.Out.String()
}

// TestOperatorPrecedence pins the binding strength of every operator
// level against Java's rules.
func TestOperatorPrecedence(t *testing.T) {
	cases := []struct {
		expr string
		want string
	}{
		{"1 + 2 * 3", "7"},
		{"(1 + 2) * 3", "9"},
		{"10 - 4 - 3", "3"},       // left assoc
		{"100 / 10 / 2", "5"},     // left assoc
		{"1 << 2 + 1", "8"},       // + binds tighter than <<
		{"3 & 1 + 1", "2"},        // + tighter than &
		{"1 | 2 ^ 2", "1"},        // ^ tighter than |
		{"4 ^ 2 & 3", "6"},        // & tighter than ^
		{"1 + 1 == 2", "1"},       // arithmetic before equality
		{"1 < 2 == 1", "1"},       // relational before equality
		{"0 == 1 | 1", "1"},       // equality before |
		{"1 > 0 && 2 > 1", "1"},   // && after comparisons
		{"0 != 0 || 1 == 1", "1"}, // || loosest
		{"-2 * 3", "-6"},          // unary minus binds tightest
		{"!0 + 0", "1"},           // !0 -> 1
		{"7 % 3 * 2", "2"},        // % and * same level, left assoc
		{"-16 >>> 60", "15"},      // unsigned shift
		{"2 << 3 >> 1", "8"},      // shift left assoc
	}
	for _, tc := range cases {
		if got := evalInt(t, tc.expr); got != tc.want {
			t.Errorf("%s = %s, want %s", tc.expr, got, tc.want)
		}
	}
}

// TestFloatFormatting checks float printing round trip.
func TestFloatPrinting(t *testing.T) {
	src := `class Main { static void main() { Sys.printf(1.5); Sys.printc(' '); Sys.printf(0.0 - 0.25); } }`
	classes, err := minijava.Compile("f.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	e := core.New(core.Config{})
	if err := e.VM.Load(classes); err != nil {
		t.Fatal(err)
	}
	m, _ := e.VM.LookupMain()
	if err := e.Run(m); err != nil {
		t.Fatal(err)
	}
	if got := e.VM.Out.String(); got != "1.5 -0.25" {
		t.Fatalf("output %q", got)
	}
}
