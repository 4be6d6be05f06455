package ascii

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestRenderSeriesBasics(t *testing.T) {
	ch := Chart{Width: 40, Height: 10}
	pts := []stats.Point{{X: 0, Y: 0}, {X: 1, Y: 1}, {X: 2, Y: 4}, {X: 3, Y: 9}}
	out := ch.RenderSeries([]string{"squares"}, [][]stats.Point{pts})
	if !strings.Contains(out, "squares") {
		t.Error("legend missing")
	}
	if !strings.Contains(out, "*") {
		t.Error("marker missing")
	}
	if lines := strings.Count(out, "\n"); lines < 12 {
		t.Errorf("output has %d lines, want >= 12", lines)
	}
}

func TestRenderMultipleSeriesDistinctMarkers(t *testing.T) {
	ch := Chart{Width: 40, Height: 10}
	a := []stats.Point{{X: 0, Y: 0}, {X: 1, Y: 1}}
	b := []stats.Point{{X: 0, Y: 1}, {X: 1, Y: 0}}
	out := ch.RenderSeries([]string{"a", "b"}, [][]stats.Point{a, b})
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Errorf("expected two distinct markers:\n%s", out)
	}
}

func TestLogXSkipsNonPositive(t *testing.T) {
	ch := Chart{Width: 40, Height: 10, LogX: true}
	pts := []stats.Point{{X: -1, Y: 5}, {X: 0, Y: 5}, {X: 10, Y: 1}, {X: 100, Y: 2}, {X: 1000, Y: 3}}
	out := ch.RenderSeries([]string{"s"}, [][]stats.Point{pts})
	if strings.Contains(out, "no data") {
		t.Error("log chart dropped all data")
	}
}

func TestDegenerateInputs(t *testing.T) {
	ch := Chart{Width: 40, Height: 10}
	if out := ch.RenderSeries([]string{"s"}, [][]stats.Point{nil}); out != "(no data)" {
		t.Errorf("empty series = %q", out)
	}
	small := Chart{Width: 2, Height: 2}
	if out := small.RenderSeries([]string{"s"}, [][]stats.Point{{{X: 1, Y: 1}}}); out != "(chart too small)" {
		t.Errorf("tiny chart = %q", out)
	}
	if out := ch.RenderSeries([]string{"a", "b"}, [][]stats.Point{{{X: 1, Y: 1}}}); !strings.Contains(out, "mismatched") {
		t.Errorf("mismatch = %q", out)
	}
	// A single point (degenerate ranges) must not divide by zero.
	out := ch.RenderSeries([]string{"one"}, [][]stats.Point{{{X: 5, Y: 5}}})
	if !strings.Contains(out, "*") {
		t.Error("single point not plotted")
	}
}

// TestRenderTable pins the Markdown form and that columns align by runes:
// the 1/γ header is 4 bytes but 3 runes wide.
func TestRenderTable(t *testing.T) {
	out := RenderTable([]string{"name", "1/γ"}, [][]string{
		{"alpha", "65"},
		{"longer-name", "160"},
	})
	want := "| name        | 1/γ |\n" +
		"|-------------|-----|\n" +
		"| alpha       | 65  |\n" +
		"| longer-name | 160 |\n"
	if out != want {
		t.Errorf("table:\n%s\nwant:\n%s", out, want)
	}
}
