package workload

import (
	"testing"
	"testing/quick"
)

func TestUniformDeterministicAndRanged(t *testing.T) {
	a := Uniform(1000, 7)
	b := Uniform(1000, 7)
	c := Uniform(1000, 8)
	same := true
	diff := false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
		if a[i] < 0 || int(a[i]) >= 2000 {
			t.Fatalf("value %d out of [0, 2n)", a[i])
		}
	}
	if !same {
		t.Error("same seed produced different data")
	}
	if !diff {
		t.Error("different seeds produced identical data")
	}
}

func TestSortedAndReverse(t *testing.T) {
	if !IsSorted(Sorted(100)) {
		t.Error("Sorted not sorted")
	}
	r := Reverse(100)
	if IsSorted(r) {
		t.Error("Reverse is sorted")
	}
	if r[0] != 99 || r[99] != 0 {
		t.Errorf("Reverse endpoints = %d, %d", r[0], r[99])
	}
}

func TestFewDistinct(t *testing.T) {
	a := FewDistinct(1000, 3, 1)
	seen := map[int32]bool{}
	for _, v := range a {
		seen[v] = true
	}
	if len(seen) > 3 {
		t.Errorf("FewDistinct produced %d distinct values, want <= 3", len(seen))
	}
	b := FewDistinct(10, 0, 1) // k clamped to 1
	for _, v := range b {
		if v != 0 {
			t.Errorf("FewDistinct(k=0) produced %d", v)
		}
	}
}

func TestGaussianNonNegative(t *testing.T) {
	for _, v := range Gaussian(10000, 2) {
		if v < 0 {
			t.Fatalf("Gaussian produced negative value %d", v)
		}
	}
}

func TestIsSorted(t *testing.T) {
	cases := []struct {
		in   []int32
		want bool
	}{
		{nil, true},
		{[]int32{1}, true},
		{[]int32{1, 1, 2}, true},
		{[]int32{2, 1}, false},
	}
	for _, c := range cases {
		if got := IsSorted(c.in); got != c.want {
			t.Errorf("IsSorted(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestIsPermutation(t *testing.T) {
	if !IsPermutation([]int32{1, 2, 2}, []int32{2, 1, 2}) {
		t.Error("rejected a valid permutation")
	}
	if IsPermutation([]int32{1, 2}, []int32{1, 1}) {
		t.Error("accepted multiset mismatch")
	}
	if IsPermutation([]int32{1}, []int32{1, 1}) {
		t.Error("accepted length mismatch")
	}
	f := func(a []int32) bool {
		b := append([]int32(nil), a...)
		for i := len(b) - 1; i > 0; i-- {
			b[i], b[i/2] = b[i/2], b[i]
		}
		return IsPermutation(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// IsPermutation reports whether b is a permutation of a, using a counting
// map. It is intended for test assertions.
func IsPermutation(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[int32]int, len(a))
	for _, v := range a {
		counts[v]++
	}
	for _, v := range b {
		counts[v]--
		if counts[v] < 0 {
			return false
		}
	}
	return true
}
