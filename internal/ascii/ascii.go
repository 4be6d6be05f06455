// Package ascii renders simple line charts and Markdown tables as text, so
// the cmd tools can show reproduced figures directly in a terminal.
package ascii

import (
	"fmt"
	"math"
	"strings"
	"unicode/utf8"

	"repro/internal/stats"
)

// markers distinguishes series in a chart, in order.
var markers = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// Chart renders named series into a width×height character grid with
// numeric axis labels. If logX is set, x values are spread on a log scale
// (all x must then be positive).
type Chart struct {
	Width, Height int
	LogX          bool
	LogY          bool
}

// DefaultChart returns a terminal-friendly chart size.
func DefaultChart() Chart { return Chart{Width: 72, Height: 20} }

type namedSeries struct {
	name   string
	points []stats.Point
}

// Render draws the series. Series are (name, points) pairs supplied via
// AddTo; the convenience function RenderSeries covers the common case.
func (c Chart) render(series []namedSeries) string {
	if c.Width < 16 || c.Height < 4 {
		return "(chart too small)"
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	tx := func(x float64) float64 {
		if c.LogX {
			return math.Log(x)
		}
		return x
	}
	ty := func(y float64) float64 {
		if c.LogY {
			return math.Log(y)
		}
		return y
	}
	n := 0
	for _, s := range series {
		for _, p := range s.points {
			if c.LogX && p.X <= 0 || c.LogY && p.Y <= 0 {
				continue
			}
			minX, maxX = math.Min(minX, tx(p.X)), math.Max(maxX, tx(p.X))
			minY, maxY = math.Min(minY, ty(p.Y)), math.Max(maxY, ty(p.Y))
			n++
		}
	}
	if n == 0 {
		return "(no data)"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, c.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", c.Width))
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for _, p := range s.points {
			if c.LogX && p.X <= 0 || c.LogY && p.Y <= 0 {
				continue
			}
			col := int((tx(p.X) - minX) / (maxX - minX) * float64(c.Width-1))
			row := c.Height - 1 - int((ty(p.Y)-minY)/(maxY-minY)*float64(c.Height-1))
			grid[row][col] = mark
		}
	}

	var b strings.Builder
	inv := func(v float64, log bool) float64 {
		if log {
			return math.Exp(v)
		}
		return v
	}
	for i, row := range grid {
		yv := inv(maxY-(maxY-minY)*float64(i)/float64(c.Height-1), c.LogY)
		fmt.Fprintf(&b, "%10.4g |%s\n", yv, string(row))
	}
	fmt.Fprintf(&b, "%10s +%s\n", "", strings.Repeat("-", c.Width))
	left := fmt.Sprintf("%.4g", inv(minX, c.LogX))
	right := fmt.Sprintf("%.4g", inv(maxX, c.LogX))
	pad := c.Width - len(left) - len(right)
	if pad < 1 {
		pad = 1
	}
	fmt.Fprintf(&b, "%10s  %s%s%s\n", "", left, strings.Repeat(" ", pad), right)
	for si, s := range series {
		fmt.Fprintf(&b, "%12c %s\n", markers[si%len(markers)], s.name)
	}
	return b.String()
}

// RenderSeries draws one or more named series.
func (c Chart) RenderSeries(names []string, pts [][]stats.Point) string {
	if len(names) != len(pts) {
		return "(mismatched series names and points)"
	}
	series := make([]namedSeries, len(names))
	for i := range names {
		series[i] = namedSeries{name: names[i], points: pts[i]}
	}
	return c.render(series)
}

// RenderTable formats rows as a Markdown pipe table, each column padded to
// its widest cell in runes, so cells such as 1/γ keep the columns aligned.
func RenderTable(columns []string, rows [][]string) string {
	widths := make([]int, len(columns))
	for _, r := range append([][]string{columns}, rows...) {
		for i, cell := range r {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(cell))
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			// fmt pads to a width in runes.
			fmt.Fprintf(&b, "| %-*s ", widths[i], cell)
		}
		b.WriteString("|\n")
	}
	writeRow(columns)
	for _, w := range widths {
		b.WriteString("|" + strings.Repeat("-", w+2))
	}
	b.WriteString("|\n")
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
