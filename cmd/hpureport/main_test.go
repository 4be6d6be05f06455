package main

import (
	"testing"

	"repro/internal/exp"
)

// TestRollOffRow pins when the F8 roll-off row is emitted: only for a sweep
// that reaches 2^20 and goes past it, with both speedups measured (the
// defect it pins printed "0.00x at 2^20" below 2^20 and compared 2^20 with
// itself at 2^20).
func TestRollOffRow(t *testing.T) {
	sweep := func(maxLogN int) []exp.SizeResult {
		var out []exp.SizeResult
		for n := 14; n <= maxLogN; n += 2 {
			out = append(out, exp.SizeResult{LogN: n, SeqSeconds: float64(n), BestSeconds: 2})
		}
		return out
	}
	for _, tc := range []struct {
		maxLogN int
		want    string
	}{
		{16, ""},
		{20, ""},
		{22, "10.00x at 2^20 → 11.00x at 2^22"},
	} {
		got, ok := rollOff(sweep(tc.maxLogN))
		if got != tc.want || ok != (tc.want != "") {
			t.Errorf("maxlogn %d: row %q (%v), want %q", tc.maxLogN, got, ok, tc.want)
		}
	}
}
