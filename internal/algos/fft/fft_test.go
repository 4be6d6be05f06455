package fft

import (
	"context"

	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/native"
)

func randomSignal(n int, seed int64) []complex128 {
	r := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(r.Float64()*2-1, r.Float64()*2-1)
	}
	return x
}

func closeTo(a, b []complex128, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		if _, err := New(make([]complex128, n)); err == nil {
			t.Errorf("New accepted length %d", n)
		}
	}
}

func TestMatchesDFTAllExecutors(t *testing.T) {
	n := 1 << 8
	x := randomSignal(n, 1)
	want := DFT(x)

	runs := []struct {
		name string
		run  func(tr *Transform) error
	}{
		{"sequential", func(tr *Transform) error {
			_, err := core.RunSequentialCtx(context.Background(), hpu.MustSim(hpu.HPU1()), tr)
			return err
		}},
		{"bf-cpu", func(tr *Transform) error {
			_, err := core.RunBreadthFirstCPUCtx(context.Background(), hpu.MustSim(hpu.HPU1()), tr)
			return err
		}},
		{"basic-hybrid", func(tr *Transform) error {
			_, err := core.RunBasicHybridCtx(context.Background(), hpu.MustSim(hpu.HPU1()), tr, 4)
			return err
		}},
		{"advanced-hybrid", func(tr *Transform) error {
			_, err := core.RunAdvancedHybridCtx(context.Background(), hpu.MustSim(hpu.HPU2()), tr, 0.25, 5)
			return err
		}},
		{"gpu-only", func(tr *Transform) error {
			_, err := core.RunGPUOnlyCtx(context.Background(), hpu.MustSim(hpu.HPU1()), tr)
			return err
		}},
	}
	for _, rc := range runs {
		t.Run(rc.name, func(t *testing.T) {
			tr, err := New(x)
			if err != nil {
				t.Fatal(err)
			}
			if err := rc.run(tr); err != nil {
				t.Fatal(err)
			}
			if !closeTo(tr.Result(), want, 1e-9*float64(n)) {
				t.Error("FFT does not match the direct DFT")
			}
		})
	}
}

func TestRoundTrip(t *testing.T) {
	n := 1 << 10
	x := randomSignal(n, 2)
	fwd, err := New(x)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunBreadthFirstCPUCtx(context.Background(), hpu.MustSim(hpu.HPU1()), fwd); err != nil {
		t.Fatal(err)
	}

	inv, err := NewInverse(fwd.Result())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RunBreadthFirstCPUCtx(context.Background(), hpu.MustSim(hpu.HPU1()), inv); err != nil {
		t.Fatal(err)
	}
	if !closeTo(inv.Result(), x, 1e-9*float64(n)) {
		t.Error("inverse(forward(x)) != x")
	}
}

func TestParseval(t *testing.T) {
	// Energy conservation: Σ|x|² = (1/n)·Σ|X|².
	n := 1 << 12
	x := randomSignal(n, 3)
	tr, _ := New(x)
	if _, err := core.RunBreadthFirstCPUCtx(context.Background(), hpu.MustSim(hpu.HPU1()), tr); err != nil {
		t.Fatal(err)
	}
	var ex, eX float64
	for i := range x {
		ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		X := tr.Result()[i]
		eX += real(X)*real(X) + imag(X)*imag(X)
	}
	if math.Abs(ex-eX/float64(n)) > 1e-6*ex {
		t.Errorf("Parseval violated: %g vs %g", ex, eX/float64(n))
	}
}

func TestLinearity(t *testing.T) {
	n := 1 << 8
	a := randomSignal(n, 4)
	b := randomSignal(n, 5)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a[i] + 2*b[i]
	}
	fa, _ := New(a)
	fb, _ := New(b)
	fs, _ := New(sum)
	for _, tr := range []*Transform{fa, fb, fs} {
		if _, err := core.RunBreadthFirstCPUCtx(context.Background(), hpu.MustSim(hpu.HPU1()), tr); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		want := fa.Result()[i] + 2*fb.Result()[i]
		if cmplx.Abs(fs.Result()[i]-want) > 1e-9*float64(n) {
			t.Fatalf("linearity violated at bin %d", i)
		}
	}
}

func TestImpulseIsFlat(t *testing.T) {
	n := 64
	x := make([]complex128, n)
	x[0] = 1
	tr, _ := New(x)
	if _, err := core.RunBreadthFirstCPUCtx(context.Background(), hpu.MustSim(hpu.HPU1()), tr); err != nil {
		t.Fatal(err)
	}
	for i, v := range tr.Result() {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse FFT bin %d = %v, want 1", i, v)
		}
	}
}

func TestNativeBackend(t *testing.T) {
	n := 1 << 9
	x := randomSignal(n, 6)
	want := DFT(x)
	be, err := native.New(native.Config{CPUWorkers: 4, DeviceLanes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	tr, _ := New(x)
	if _, err := core.RunAdvancedHybridCtx(context.Background(), be, tr, 0.3, 5); err != nil {
		t.Fatal(err)
	}
	if !closeTo(tr.Result(), want, 1e-9*float64(n)) {
		t.Error("native FFT incorrect")
	}
}

// DFT is the quadratic reference transform used in tests.
func DFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			out[k] += x[j] * cmplx.Exp(complex(0, -2*math.Pi*float64(k*j)/float64(n)))
		}
	}
	return out
}
