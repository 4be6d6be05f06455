// Package export serializes reproduced figures and tables to CSV and JSON,
// so the regenerated evaluation can be re-plotted with external tooling
// (gnuplot, matplotlib) exactly as the paper's original data would be.
package export

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/exp"
)

// WriteFigureCSV emits one row per point: series, x, y.
func WriteFigureCSV(w io.Writer, f exp.Figure) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", f.XLabel, f.YLabel}); err != nil {
		return err
	}
	for _, s := range f.Series {
		for _, p := range s.Points {
			rec := []string{
				s.Name,
				strconv.FormatFloat(p.X, 'g', -1, 64),
				strconv.FormatFloat(p.Y, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTableCSV emits the table with its header row.
func WriteTableCSV(w io.Writer, t exp.Table) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// figureJSON is the JSON shape of a figure.
type figureJSON struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	XLabel string       `json:"xlabel"`
	YLabel string       `json:"ylabel"`
	LogX   bool         `json:"logx,omitempty"`
	Series []seriesJSON `json:"series"`
	Notes  []string     `json:"notes,omitempty"`
}

type seriesJSON struct {
	Name   string       `json:"name"`
	Points [][2]float64 `json:"points"`
}

// WriteFigureJSON emits the figure as a single JSON document.
func WriteFigureJSON(w io.Writer, f exp.Figure) error {
	out := figureJSON{
		ID: f.ID, Title: f.Title, XLabel: f.XLabel, YLabel: f.YLabel,
		LogX: f.LogX, Notes: f.Notes,
	}
	for _, s := range f.Series {
		sj := seriesJSON{Name: s.Name, Points: make([][2]float64, len(s.Points))}
		for i, p := range s.Points {
			sj.Points[i] = [2]float64{p.X, p.Y}
		}
		out.Series = append(out.Series, sj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// tableJSON is the JSON shape of a table.
type tableJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// WriteTableJSON emits the table as a single JSON document.
func WriteTableJSON(w io.Writer, t exp.Table) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tableJSON{
		ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes,
	})
}
