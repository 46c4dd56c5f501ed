package equiv_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mp5/internal/equiv"
)

// TestVerifyOrder pins the order half of the verdict: each case runs Verify
// with matching state, so the order alone decides, and checks the recorded
// divergences and the rendered report.
func TestVerifyOrder(t *testing.T) {
	ref := func(order map[string][]int64) *equiv.Ref {
		return &equiv.Ref{
			Regs:    [][]int64{{7}},
			Outputs: map[int64][]int64{0: {1}, 1: {2}, 2: {3}},
			Order:   order,
		}
	}
	want := map[string][]int64{"r0[0]": {0, 1, 2}, "r1[3]": {1, 2}}
	const header = "NOT equivalent: 0 mismatches, 1 states out of order (3 packets compared)\n  order: "
	for _, c := range []struct {
		name      string
		want, got map[string][]int64
		divs      []equiv.OrderDiv
		report    string
	}{
		{
			name:   "identical",
			want:   want,
			got:    map[string][]int64{"r0[0]": {0, 1, 2}, "r1[3]": {1, 2}},
			report: "equivalent (3 packets compared)",
		},
		{
			name:   "swapped",
			want:   want,
			got:    map[string][]int64{"r0[0]": {0, 2, 1}, "r1[3]": {1, 2}},
			divs:   []equiv.OrderDiv{{State: "r0[0]", Pos: 1, Want: 1, Got: 2}},
			report: header + "r0[0] position 1: reference packet 1, observed 2",
		},
		{
			name:   "missing state",
			want:   want,
			got:    map[string][]int64{"r0[0]": {0, 1, 2}},
			divs:   []equiv.OrderDiv{{State: "r1[3]", Pos: 0, Want: 1, Got: -1}},
			report: header + "r1[3] position 0: reference packet 1, observed -1",
		},
		{
			name:   "spurious state",
			want:   want,
			got:    map[string][]int64{"r0[0]": {0, 1, 2}, "r1[3]": {1, 2}, "r0[5]": {2}},
			divs:   []equiv.OrderDiv{{State: "r0[5]", Pos: 0, Want: -1, Got: 2}},
			report: header + "r0[5] position 0: reference packet -1, observed 2",
		},
		{
			name:   "shorter sequence",
			want:   want,
			got:    map[string][]int64{"r0[0]": {0, 1}, "r1[3]": {1, 2}},
			divs:   []equiv.OrderDiv{{State: "r0[0]", Pos: 2, Want: 2, Got: -1}},
			report: header + "r0[0] position 2: reference packet 2, observed -1",
		},
		{
			name:   "nil against nil",
			report: "equivalent (3 packets compared)",
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			rep := ref(c.want).Verify([][]int64{{7}}, map[int64][]int64{0: {1}, 1: {2}, 2: {3}}, c.got)
			if rep.Equivalent != (len(c.divs) == 0) {
				t.Errorf("Equivalent = %v with divergences %v", rep.Equivalent, rep.Order)
			}
			if rep.Total != 0 {
				t.Errorf("order divergence counted as %d state mismatches", rep.Total)
			}
			if !reflect.DeepEqual(rep.Order, c.divs) {
				t.Errorf("Order = %+v, want %+v", rep.Order, c.divs)
			}
			if got := rep.String(); got != c.report {
				t.Errorf("report renders:\n%q\nwant:\n%q", got, c.report)
			}
		})
	}
}

// TestVerifyOrderCapped: divergences are recorded first per state, in
// state-name order, and stop at OrderLimit states; OrderTotal and the
// rendered report still count every diverged state.
func TestVerifyOrderCapped(t *testing.T) {
	want, got := map[string][]int64{}, map[string][]int64{}
	for i := 0; i < 3*equiv.OrderLimit; i++ {
		key := fmt.Sprintf("r%02d[0]", i)
		want[key] = []int64{0, 1}
		got[key] = []int64{1, 0}
	}
	rep := (&equiv.Ref{Order: want}).Verify(nil, map[int64][]int64{}, got)
	if rep.Equivalent || len(rep.Order) != equiv.OrderLimit {
		t.Fatalf("recorded %d divergences (equivalent=%v), want the cap %d", len(rep.Order), rep.Equivalent, equiv.OrderLimit)
	}
	if rep.OrderTotal != 3*equiv.OrderLimit {
		t.Fatalf("OrderTotal = %d, want %d", rep.OrderTotal, 3*equiv.OrderLimit)
	}
	s := rep.String()
	for _, line := range []string{
		fmt.Sprintf(", %d states out of order", 3*equiv.OrderLimit),
		fmt.Sprintf("\n  ... and %d more states out of order", 2*equiv.OrderLimit),
	} {
		if !strings.Contains(s, line) {
			t.Errorf("report lacks %q:\n%s", line, s)
		}
	}
	for i, d := range rep.Order {
		if d.State != fmt.Sprintf("r%02d[0]", i) || d.Pos != 0 || d.Want != 0 || d.Got != 1 {
			t.Fatalf("divergence %d = %+v", i, d)
		}
	}
}
