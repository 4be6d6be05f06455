package core_test

import (
	"testing"

	"repro/internal/algos/dcsum"
	"repro/internal/algos/fft"
	"repro/internal/algos/karatsuba"
	"repro/internal/algos/matmul"
	"repro/internal/algos/maxsubarray"
	"repro/internal/algos/mergesort"
	"repro/internal/algos/scan"
	"repro/internal/algos/strassen"
	. "repro/internal/core"
)

// TestConstructorAllocs pins that building an instance allocates
// O(levels) objects, not one or more per recursion-tree node: at both
// sizes, New stays under allocsPerLevel·(levels+1). karatsuba, matmul and
// strassen keep one slab per level per role and cut each node's storage
// from it (when every node had its own slices, karatsuba made 1 840
// allocations at 2⁶ digits, and matmul and strassen 232 and 184 at depth
// 2); the other five allocate a constant few. The inputs are built outside the
// count.
func TestConstructorAllocs(t *testing.T) {
	const allocsPerLevel = 5
	ints := func(n int) []int32 { return make([]int32, n) }
	mat := func(n int) []float64 { return make([]float64, n*n) }
	for _, c := range []struct {
		name string
		// sizes are two lengths, or for matmul and strassen two depths
		// over 16×16 matrices.
		sizes [2]int
		// input returns the build for one size over inputs it made.
		input func(size int) func() (Alg, error)
	}{
		{"karatsuba", [2]int{1 << 6, 1 << 10}, func(n int) func() (Alg, error) {
			a, b := ints(n), ints(n)
			return func() (Alg, error) { return karatsuba.New(a, b) }
		}},
		{"matmul", [2]int{2, 4}, func(d int) func() (Alg, error) {
			a, b := mat(16), mat(16)
			return func() (Alg, error) { return matmul.New(a, b, 16, d) }
		}},
		{"strassen", [2]int{2, 4}, func(d int) func() (Alg, error) {
			a, b := mat(16), mat(16)
			return func() (Alg, error) { return strassen.New(a, b, 16, d) }
		}},
		{"mergesort", [2]int{1 << 6, 1 << 10}, func(n int) func() (Alg, error) {
			a := ints(n)
			return func() (Alg, error) { return mergesort.New(a) }
		}},
		{"scan", [2]int{1 << 6, 1 << 10}, func(n int) func() (Alg, error) {
			a := ints(n)
			return func() (Alg, error) { return scan.New(a) }
		}},
		{"dcsum", [2]int{1 << 6, 1 << 10}, func(n int) func() (Alg, error) {
			a := ints(n)
			return func() (Alg, error) { return dcsum.New(a) }
		}},
		{"maxsubarray", [2]int{1 << 6, 1 << 10}, func(n int) func() (Alg, error) {
			a := ints(n)
			return func() (Alg, error) { return maxsubarray.New(a) }
		}},
		{"fft", [2]int{1 << 6, 1 << 10}, func(n int) func() (Alg, error) {
			a := make([]complex128, n)
			return func() (Alg, error) { return fft.New(a) }
		}},
	} {
		for _, size := range c.sizes {
			build := c.input(size)
			var levels int
			allocs := testing.AllocsPerRun(5, func() {
				a, err := build()
				if err != nil {
					t.Fatal(err)
				}
				levels = a.Levels()
				ReleaseAlg(a)
			})
			if limit := float64(allocsPerLevel * (levels + 1)); allocs > limit {
				t.Errorf("%s at size %d (%d levels): New allocated %g times, want at most %g",
					c.name, size, levels, allocs, limit)
			}
		}
	}
}
