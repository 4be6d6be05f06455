package maxsubarray

import (
	"context"

	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/hpu"
	"repro/internal/native"
)

// signed returns a seeded input with positive and negative values, the
// interesting regime for this problem.
func signed(n int, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(r.Intn(2001) - 1000)
	}
	return a
}

func TestKadaneBasics(t *testing.T) {
	cases := []struct {
		in   []int32
		want int64
	}{
		{[]int32{1, 2, 3, 4}, 10},
		{[]int32{-1, -2, -3}, -1},
		{[]int32{5, -9, 6, -2, 3}, 7},
		{[]int32{-2, 1, -3, 4, -1, 2, 1, -5, 4}, 6},
		{[]int32{0}, 0},
	}
	for _, c := range cases {
		if got := Kadane(c.in); got != c.want {
			t.Errorf("Kadane(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestCombineAssociativity(t *testing.T) {
	// Folding three leaves left-to-right in tree shape must match the
	// direct computation over the concatenation.
	f := func(a, b, c, d int16) bool {
		in := []int32{int32(a), int32(b), int32(c), int32(d)}
		leaf := func(v int32) node {
			x := int64(v)
			return node{x, x, x, x}
		}
		root := combine(combine(leaf(in[0]), leaf(in[1])), combine(leaf(in[2]), leaf(in[3])))
		return root.best == Kadane(in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		if _, err := New(make([]int32, n)); err == nil {
			t.Errorf("New accepted length %d", n)
		}
	}
}

func TestExecutors(t *testing.T) {
	in := signed(1<<12, 7)
	want := Kadane(in)

	t.Run("sequential", func(t *testing.T) {
		be := hpu.MustSim(hpu.HPU1())
		s, _ := New(in)
		if _, err := core.RunSequentialCtx(context.Background(), be, s); err != nil {
			t.Fatal(err)
		}
		if got := s.Result(); got != want {
			t.Errorf("got %d, want %d", got, want)
		}
	})
	t.Run("bf-cpu", func(t *testing.T) {
		be := hpu.MustSim(hpu.HPU1())
		s, _ := New(in)
		if _, err := core.RunBreadthFirstCPUCtx(context.Background(), be, s); err != nil {
			t.Fatal(err)
		}
		if got := s.Result(); got != want {
			t.Errorf("got %d, want %d", got, want)
		}
	})
	t.Run("basic-hybrid", func(t *testing.T) {
		be := hpu.MustSim(hpu.HPU1())
		s, _ := New(in)
		if _, err := core.RunBasicHybridCtx(context.Background(), be, s, 6); err != nil {
			t.Fatal(err)
		}
		if got := s.Result(); got != want {
			t.Errorf("got %d, want %d", got, want)
		}
	})
	t.Run("advanced-hybrid", func(t *testing.T) {
		be := hpu.MustSim(hpu.HPU2())
		s, _ := New(in)
		prm := advParams{Alpha: 0.2, Y: 7, Split: -1}
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, s, prm.Alpha, prm.Y, core.WithSplit(prm.Split)); err != nil {
			t.Fatal(err)
		}
		if got := s.Result(); got != want {
			t.Errorf("got %d, want %d", got, want)
		}
	})
	t.Run("gpu-only", func(t *testing.T) {
		be := hpu.MustSim(hpu.HPU1())
		s, _ := New(in)
		if _, err := core.RunGPUOnlyCtx(context.Background(), be, s); err != nil {
			t.Fatal(err)
		}
		if got := s.Result(); got != want {
			t.Errorf("got %d, want %d", got, want)
		}
	})
	t.Run("native", func(t *testing.T) {
		be, err := native.New(native.Config{CPUWorkers: 4, DeviceLanes: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		s, _ := New(in)
		prm := advParams{Alpha: 0.3, Y: 6, Split: -1}
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, s, prm.Alpha, prm.Y, core.WithSplit(prm.Split)); err != nil {
			t.Fatal(err)
		}
		if got := s.Result(); got != want {
			t.Errorf("got %d, want %d", got, want)
		}
	})
}

func TestQuickProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(4))}
	f := func(seed int64, sizePow, yRaw uint8, alphaRaw uint16) bool {
		logN := 1 + int(sizePow%10)
		n := 1 << logN
		in := signed(n, seed)
		be := hpu.MustSim(hpu.HPU1())
		s, err := New(in)
		if err != nil {
			return false
		}
		prm := advParams{
			Alpha: float64(alphaRaw) / 65535,
			Y:     int(yRaw) % (logN + 1),
			Split: -1,
		}
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, s, prm.Alpha, prm.Y, core.WithSplit(prm.Split)); err != nil {
			return false
		}
		return s.Result() == Kadane(in)
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

// Kadane is the linear-time sequential reference.
func Kadane(data []int32) int64 {
	if len(data) == 0 {
		panic("maxsubarray: empty input")
	}
	best := int64(data[0])
	cur := int64(data[0])
	for _, v := range data[1:] {
		x := int64(v)
		if cur < 0 {
			cur = x
		} else {
			cur += x
		}
		if cur > best {
			best = cur
		}
	}
	return best
}
