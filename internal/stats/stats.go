// Package stats provides the small numeric toolkit the experiment harness
// needs: summaries and the saturation-knee detector used to
// estimate the GPU parallelism g from a time-vs-threads curve (§6.4).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Point is one (x, y) sample of a measured curve.
type Point struct {
	X, Y float64
}

// Mean returns the arithmetic mean of xs; NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs; NaN for empty input.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// SaturationKnee finds the knee of a decreasing-then-flat curve: the
// smallest x whose y is within tol (relative) of the curve's floor, taken as
// the median of the last tailFrac fraction of points. This is the paper's
// procedure for estimating g: "the value after which no improvement in
// performance was detected". Points must be sorted by X.
func SaturationKnee(pts []Point, tol, tailFrac float64) (float64, error) {
	if len(pts) < 4 {
		return 0, fmt.Errorf("stats: SaturationKnee needs >= 4 points, got %d", len(pts))
	}
	if tol <= 0 || tailFrac <= 0 || tailFrac > 1 {
		return 0, fmt.Errorf("stats: invalid tol=%g tailFrac=%g", tol, tailFrac)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].X < pts[i-1].X {
			return 0, fmt.Errorf("stats: points not sorted by X at index %d", i)
		}
	}
	tail := int(float64(len(pts)) * tailFrac)
	if tail < 2 {
		tail = 2
	}
	ys := make([]float64, 0, tail)
	for _, p := range pts[len(pts)-tail:] {
		ys = append(ys, p.Y)
	}
	floor := Median(ys)
	limit := floor * (1 + tol)
	for _, p := range pts {
		if p.Y <= limit {
			return p.X, nil
		}
	}
	return pts[len(pts)-1].X, nil
}
