package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateReport = flag.Bool("update", false, "rewrite testdata/report.golden from this commit's drivers")

// TestReportGolden pins every reproduced number with sweeps up to n = 2^18:
// per row, the four cells of the table and, on the next line, the
// full-precision values its Measured cell formats, so a change in any digit
// fails. -update rewrites testdata/report.golden, which only a change that
// declares a moved reproduction may do.
func TestReportGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the sweeps take about 40 s under -race")
	}
	tab, values, err := report(18)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for i, r := range tab.Rows {
		fmt.Fprintf(&sb, "| %s |\n\t%v\n", strings.Join(r, " | "), values[i])
	}
	got := sb.String()
	path := filepath.Join("testdata", "report.golden")
	if *updateReport {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(tab.Rows), path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, lines := strings.Split(string(data), "\n"), strings.Split(got, "\n")
	for i := range max(len(want), len(lines)) {
		if w, g := lineAt(want, i), lineAt(lines, i); w != g {
			t.Fatalf("%s line %d differs\n want %s\n  got %s\nthis commit's table:\n%s", path, i+1, w, g, got)
		}
	}
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "(end of file)"
}

// TestRollOffRow pins when the F8 roll-off row is emitted: only for a sweep
// that reaches 2^20 and goes past it, with both speedups measured (the
// defect it pins printed "0.00x at 2^20" below 2^20 and compared 2^20 with
// itself at 2^20).
func TestRollOffRow(t *testing.T) {
	sweep := func(maxLogN int) []SizeResult {
		var out []SizeResult
		for n := 14; n <= maxLogN; n += 2 {
			out = append(out, SizeResult{LogN: n, SeqSeconds: float64(n), BestSeconds: 2})
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
