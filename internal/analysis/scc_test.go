package analysis

import (
	"reflect"
	"testing"
)

// TestSCCsEmissionOrder: components come out reverse topologically
// (callees before callers), cycles grouped, in a fixed order.
func TestSCCsEmissionOrder(t *testing.T) {
	// 0 -> 1 <-> 2 -> 3, 0 -> 4 -> 4 (self loop), 5 isolated.
	adj := [][]int{{1, 4}, {2}, {1, 3}, nil, {4}, nil}
	want := [][]int{{3}, {2, 1}, {4}, {0}, {5}}
	if got := SCCs(adj); !reflect.DeepEqual(got, want) {
		t.Errorf("SCCs = %v, want %v", got, want)
	}
}
