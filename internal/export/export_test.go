package export

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/stats"
)

func sampleFigure() exp.Figure {
	return exp.Figure{
		ID: "figX", Title: "sample", XLabel: "n", YLabel: "speedup", LogX: true,
		Series: []exp.Series{
			{Name: "measured", Points: []stats.Point{{X: 1024, Y: 2.5}, {X: 4096, Y: 3.75}}},
			{Name: "predicted", Points: []stats.Point{{X: 1024, Y: 3}, {X: 4096, Y: 4}}},
		},
		Notes: []string{"a note"},
	}
}

func TestFigureCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFigureCSV(&buf, sampleFigure()); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("rows = %d, want 5 (header + 4 points)", len(recs))
	}
	if recs[0][0] != "series" || recs[0][1] != "n" || recs[0][2] != "speedup" {
		t.Errorf("header = %v", recs[0])
	}
	if recs[1][0] != "measured" || recs[1][1] != "1024" || recs[1][2] != "2.5" {
		t.Errorf("first row = %v", recs[1])
	}
}

func TestTableCSV(t *testing.T) {
	tab := exp.Table{
		ID: "t", Title: "t", Columns: []string{"a", "b"},
		Rows: [][]string{{"1", "x"}, {"2", "y"}},
	}
	var buf bytes.Buffer
	if err := WriteTableCSV(&buf, tab); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2][1] != "y" {
		t.Errorf("table CSV = %v", recs)
	}
}

func TestFigureJSONRoundTrip(t *testing.T) {
	want := sampleFigure()
	var buf bytes.Buffer
	if err := WriteFigureJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFigureJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Title != want.Title || !got.LogX {
		t.Errorf("metadata mismatch: %+v", got)
	}
	if len(got.Series) != 2 || got.Series[1].Name != "predicted" {
		t.Fatalf("series mismatch: %+v", got.Series)
	}
	for i, s := range got.Series {
		for j, p := range s.Points {
			if p != want.Series[i].Points[j] {
				t.Errorf("point [%d][%d] = %v, want %v", i, j, p, want.Series[i].Points[j])
			}
		}
	}
}

func TestTableJSON(t *testing.T) {
	tab := exp.Table{ID: "t2", Columns: []string{"c"}, Rows: [][]string{{"v"}}}
	var buf bytes.Buffer
	if err := WriteTableJSON(&buf, tab); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`"id": "t2"`, `"columns"`, `"v"`} {
		if !strings.Contains(s, want) {
			t.Errorf("JSON missing %q:\n%s", want, s)
		}
	}
}

func TestReadFigureJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadFigureJSON(strings.NewReader("{not json")); err == nil {
		t.Error("accepted invalid JSON")
	}
}

// ReadFigureJSON parses a figure written by WriteFigureJSON, for round-trip
// tooling and tests.
func ReadFigureJSON(r io.Reader) (exp.Figure, error) {
	var in figureJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return exp.Figure{}, fmt.Errorf("export: decoding figure: %w", err)
	}
	f := exp.Figure{
		ID: in.ID, Title: in.Title, XLabel: in.XLabel, YLabel: in.YLabel,
		LogX: in.LogX, Notes: in.Notes,
	}
	for _, sj := range in.Series {
		s := exp.Series{Name: sj.Name}
		for _, p := range sj.Points {
			s.Points = append(s.Points, point(p))
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// point converts a JSON pair into a stats.Point.
func point(p [2]float64) stats.Point { return stats.Point{X: p[0], Y: p[1]} }
