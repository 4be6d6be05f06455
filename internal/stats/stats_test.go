package stats

import (
	"math"
	"testing"
)

func TestSummaries(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := Mean(xs); got != 2.5 {
		t.Errorf("Mean = %g, want 2.5", got)
	}
	if got := Median(xs); got != 2.5 {
		t.Errorf("Median = %g, want 2.5", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd Median = %g, want 2", got)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) {
		t.Error("empty summaries should be NaN")
	}
}

func TestSaturationKnee(t *testing.T) {
	// A 1/x curve that flattens at x = 100.
	var pts []Point
	for x := 10.0; x <= 300; x += 10 {
		y := 1.0
		if x < 100 {
			y = 100 / x
		}
		pts = append(pts, Point{x, y})
	}
	knee, err := SaturationKnee(pts, 0.05, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if knee < 90 || knee > 110 {
		t.Errorf("knee = %g, want ~100", knee)
	}
}

func TestSaturationKneeValidation(t *testing.T) {
	pts := []Point{{1, 1}, {2, 1}, {3, 1}, {4, 1}}
	if _, err := SaturationKnee(pts[:2], 0.05, 0.2); err == nil {
		t.Error("accepted too few points")
	}
	if _, err := SaturationKnee(pts, -1, 0.2); err == nil {
		t.Error("accepted negative tolerance")
	}
	if _, err := SaturationKnee(pts, 0.05, 2); err == nil {
		t.Error("accepted tailFrac > 1")
	}
	unsorted := []Point{{2, 1}, {1, 1}, {3, 1}, {4, 1}}
	if _, err := SaturationKnee(unsorted, 0.05, 0.5); err == nil {
		t.Error("accepted unsorted points")
	}
}
