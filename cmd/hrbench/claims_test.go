package main

import (
	"strings"
	"testing"
)

// TestClaimChecks drives each experiment's claim check with rows that hold
// the claim and rows that break it; a broken claim must name what broke.
func TestClaimChecks(t *testing.T) {
	ns := func(median float64) dist { return dist{MedianNs: median} }
	e1 := func(flatBytes, hierBytes int) []e1Row {
		return []e1Row{{10, 10, 100, 4400, 10, 410}, {10, 100, 1000, flatBytes, 10, hierBytes}}
	}
	e2 := func(joins int, hits uint64, hier, base float64) []e2Row {
		return []e2Row{{2, 4, 0, ns(3e3), ns(45e3)}, {16, joins, hits, ns(hier), ns(base)}}
	}
	e4 := func(extension int, ns40k float64) []e4Row {
		return []e4Row{
			{classes: 10, fanout: 100, extension: 4000, explicate: ns(4e6)},
			{classes: 10, fanout: 1000, extension: extension, explicate: ns(ns40k)},
		}
	}
	e6 := func(delta10k float64) []e6WriteRow {
		return []e6WriteRow{{tuples: 100, delta: ns(10e3)}, {tuples: 10000, delta: ns(delta10k)}}
	}
	cases := []struct {
		name string
		err  error
		want string // "" when the claim holds
	}{
		{"E1 holds", e1Check(e1(44000, 410)), ""},
		{"E1 compression below fanout", e1Check(e1(4400, 410)), "compression"},
		{"E1 hier bytes grow with fanout", e1Check(e1(440000, 4100)), "hier bytes"},
		{"E2 holds", e2Check(e2(18, 0, 28e3, 1.6e6)), ""},
		{"E2 joins off by one", e2Check(e2(17, 0, 28e3, 1.6e6)), "joins per query"},
		{"E2 cache hits", e2Check(e2(18, 5, 87, 1.6e6)), "verdict-cache hits"},
		{"E2 baseline not slower", e2Check(e2(18, 0, 28e3, 20e3)), "not slower"},
		{"E3 holds", e3Check([]e3Row{{classes: 10, before: 110, after: 10}}), ""},
		{"E3 consolidate kept redundancy", e3Check([]e3Row{{classes: 10, before: 110, after: 110}}), "one per class"},
		{"E4 holds", e4Check(e4(40000, 3*40e6)), ""},
		{"E4 extension doubled", e4Check(e4(80000, 40e6)), "extension"},
		{"E4 superlinear", e4Check(e4(40000, 5*40e6)), "per row"},
		{"E5 holds", e5Check([]e5Row{{a: 20, b: 16, union: 45}}), ""},
		{"E5 union not compact", e5Check([]e5Row{{a: 5, b: 5, union: 36}}), "at most 35"},
		{"E6 holds", e6Check(e6(19e3)), ""},
		{"E6 delta grows", e6Check(e6(21e3)), "not flat"},
		{"E7 holds", e7Check([]e7Row{{members: 10, flatRows: 200, mined: 20}}), ""},
		{"E7 nothing mined", e7Check([]e7Row{{members: 10, flatRows: 200, mined: 200}}), "rows = tuples × members"},
	}
	for _, c := range cases {
		switch {
		case c.want == "" && c.err != nil:
			t.Errorf("%s: %v", c.name, c.err)
		case c.want != "" && c.err == nil:
			t.Errorf("%s: check passed", c.name)
		case c.want != "" && !strings.Contains(c.err.Error(), c.want):
			t.Errorf("%s: error %q does not mention %q", c.name, c.err, c.want)
		}
	}
}
