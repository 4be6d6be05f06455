package karatsuba

import (
	"context"

	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/native"
)

func coeffs(n int, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(r.Intn(2001) - 1000)
	}
	return a
}

func equal(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	if _, err := New(make([]int32, 4), make([]int32, 8)); err == nil {
		t.Error("New accepted mismatched lengths")
	}
	for _, n := range []int{0, 1, 3, 12} {
		if _, err := New(make([]int32, n), make([]int32, n)); err == nil {
			t.Errorf("New accepted length %d", n)
		}
	}
}

func TestMultiplyReference(t *testing.T) {
	a := []int32{1, 2}
	b := []int32{3, 4}
	// (1 + 2x)(3 + 4x) = 3 + 10x + 8x².
	want := []int64{3, 10, 8, 0}
	if got := Multiply(a, b); !equal(got, want) {
		t.Errorf("Multiply = %v, want %v", got, want)
	}
}

func TestExecutors(t *testing.T) {
	n := 1 << 6
	a, b := coeffs(n, 1), coeffs(n, 2)
	want := Multiply(a, b)

	t.Run("sequential", func(t *testing.T) {
		be := hpu.MustSim(hpu.HPU1())
		m, err := New(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.RunSequentialCtx(context.Background(), be, m); err != nil {
			t.Fatal(err)
		}
		if !equal(m.Result(), want) {
			t.Error("sequential product incorrect")
		}
	})
	t.Run("bf-cpu", func(t *testing.T) {
		be := hpu.MustSim(hpu.HPU1())
		m, _ := New(a, b)
		if _, err := core.RunBreadthFirstCPUCtx(context.Background(), be, m); err != nil {
			t.Fatal(err)
		}
		if !equal(m.Result(), want) {
			t.Error("breadth-first product incorrect")
		}
	})
	t.Run("basic-hybrid", func(t *testing.T) {
		be := hpu.MustSim(hpu.HPU1())
		m, _ := New(a, b)
		if _, err := core.RunBasicHybridCtx(context.Background(), be, m, 3); err != nil {
			t.Fatal(err)
		}
		if !equal(m.Result(), want) {
			t.Error("basic hybrid product incorrect")
		}
	})
	t.Run("advanced-hybrid", func(t *testing.T) {
		be := hpu.MustSim(hpu.HPU2())
		m, _ := New(a, b)
		prm := advParams{Alpha: 0.3, Y: 4, Split: -1}
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, m, prm.Alpha, prm.Y, core.WithSplit(prm.Split)); err != nil {
			t.Fatal(err)
		}
		if !equal(m.Result(), want) {
			t.Error("advanced hybrid product incorrect")
		}
	})
	t.Run("gpu-only", func(t *testing.T) {
		be := hpu.MustSim(hpu.HPU1())
		m, _ := New(a, b)
		if _, err := core.RunGPUOnlyCtx(context.Background(), be, m); err != nil {
			t.Fatal(err)
		}
		if !equal(m.Result(), want) {
			t.Error("gpu-only product incorrect")
		}
	})
	t.Run("native", func(t *testing.T) {
		be, err := native.New(native.Config{CPUWorkers: 4, DeviceLanes: 8})
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		m, _ := New(a, b)
		prm := advParams{Alpha: 0.4, Y: 3, Split: 1}
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, m, prm.Alpha, prm.Y, core.WithSplit(prm.Split)); err != nil {
			t.Fatal(err)
		}
		if !equal(m.Result(), want) {
			t.Error("native product incorrect")
		}
	})
}

func TestArityThreeSplits(t *testing.T) {
	// Odd arity makes the α rounding at the split level non-trivial; cover
	// several splits and ratios.
	n := 1 << 5
	a, b := coeffs(n, 3), coeffs(n, 4)
	want := Multiply(a, b)
	for _, prm := range []advParams{
		{Alpha: 0.1, Y: 3, Split: 1},
		{Alpha: 0.34, Y: 2, Split: 2},
		{Alpha: 0.67, Y: 4, Split: 0},
		{Alpha: 0.9, Y: 5, Split: 3},
	} {
		be := hpu.MustSim(hpu.HPU1())
		m, _ := New(a, b)
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, m, prm.Alpha, prm.Y, core.WithSplit(prm.Split)); err != nil {
			t.Fatalf("%+v: %v", prm, err)
		}
		if !equal(m.Result(), want) {
			t.Errorf("%+v: product incorrect", prm)
		}
	}
}

func TestQuickProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(5))}
	f := func(seed int64, sizePow, yRaw uint8, alphaRaw uint16) bool {
		logN := 1 + int(sizePow%6)
		n := 1 << logN
		a, b := coeffs(n, seed), coeffs(n, seed+1)
		be := hpu.MustSim(hpu.HPU1())
		m, err := New(a, b)
		if err != nil {
			return false
		}
		prm := advParams{
			Alpha: float64(alphaRaw) / 65535,
			Y:     int(yRaw) % (logN + 1),
			Split: -1,
		}
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, m, prm.Alpha, prm.Y, core.WithSplit(prm.Split)); err != nil {
			return false
		}
		return equal(m.Result(), Multiply(a, b))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// advParams groups advanced-division parameters for test tables. It
// replaces the deprecated core.AdvancedParams in test code.
type advParams struct {
	Alpha float64
	Y     int
	Split int
}

// Multiply is the sequential schoolbook reference: the 2n-coefficient
// product of two n-coefficient polynomials.
func Multiply(a, b []int32) []int64 {
	out := make([]int64, 2*len(a))
	for i, x := range a {
		for j, y := range b {
			out[i+j] += int64(x) * int64(y)
		}
	}
	return out
}
