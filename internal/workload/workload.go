// Package workload generates deterministic, seeded inputs for the
// experiments. The paper draws mergesort inputs uniformly at random from
// [0, 2n) (§6.4); additional shapes are provided for robustness testing.
package workload

import "math/rand"

// Uniform returns n int32 values drawn uniformly from [0, 2n), the paper's
// input distribution, from a deterministic seed.
func Uniform(n int, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	a := make([]int32, n)
	limit := int64(2 * n)
	if limit <= 0 {
		limit = 1
	}
	for i := range a {
		a[i] = int32(r.Int63n(limit))
	}
	return a
}

// Sorted returns 0..n-1, an already-sorted input.
func Sorted(n int) []int32 {
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(i)
	}
	return a
}

// Reverse returns n-1..0, the adversarially reversed input.
func Reverse(n int) []int32 {
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(n - 1 - i)
	}
	return a
}

// FewDistinct returns n values drawn from only k distinct keys, stressing
// duplicate handling in merges.
func FewDistinct(n, k int, seed int64) []int32 {
	if k < 1 {
		k = 1
	}
	r := rand.New(rand.NewSource(seed))
	a := make([]int32, n)
	for i := range a {
		a[i] = int32(r.Intn(k))
	}
	return a
}

// Gaussian returns n values from a clipped normal distribution centered at
// n with standard deviation n/4.
func Gaussian(n int, seed int64) []int32 {
	r := rand.New(rand.NewSource(seed))
	a := make([]int32, n)
	mean, sd := float64(n), float64(n)/4
	for i := range a {
		v := mean + sd*r.NormFloat64()
		if v < 0 {
			v = 0
		}
		a[i] = int32(v)
	}
	return a
}

// IsSorted reports whether a is nondecreasing.
func IsSorted(a []int32) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] > a[i] {
			return false
		}
	}
	return true
}
