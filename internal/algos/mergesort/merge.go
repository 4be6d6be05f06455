package mergesort

// The leaf kernels (DESIGN.md §11, "Leaf kernels"). On random keys the
// textbook `if a[i] <= b[j]` is a coin flip the branch predictor loses half
// the time, and the misprediction, not the compare, is what a merge costs.
// The loops below therefore select with a conditional move and advance their
// cursors by a 0/1 increment; the only branches left are loop counters and
// bounds checks, which predict. The shape `v, t := y, 0; if x <= y { v, t =
// x, 1 }` is the one the Go compiler turns into CMOV + SETcc (an `i++` inside
// the `if`, a third selected value or an early return stays a jump), so keep
// it when editing and check with `go tool objdump`.
//
// Keys are bare int32, so equal keys are indistinguishable and no kernel has
// to care which run a tie is taken from. Cost, and with it every virtual-time
// number, does not know how the host executes a merge.

// ordered returns x and y in ascending order, as two conditional moves.
func ordered(x, y int32) (lo, hi int32) {
	lo, hi = x, y
	if y < x {
		lo, hi = y, x
	}
	return lo, hi
}

// mergeRuns merges the sorted runs a and b into out. len(out) must be
// len(a)+len(b).
func mergeRuns(out, a, b []int32) {
	na, nb := len(a), len(b)
	switch {
	case na == 1 && nb == 1:
		out[0], out[1] = ordered(a[0], b[0])
	// Runs that do not overlap — presorted, all-equal and reverse inputs
	// at every level — are two block copies.
	case na == 0 || nb == 0 || a[na-1] <= b[0]:
		copy(out[copy(out, a):], b)
	case b[nb-1] < a[0]:
		copy(out[copy(out, b):], a)
	case na == nb:
		mergeHalves(out, a, b)
	default:
		mergeUneven(out, a, b)
	}
}

// mergeHalves merges two runs of the same length h from both ends at once:
// a front pair of cursors emits the h smallest elements upward from out[0]
// while a back pair emits the h largest downward from out[2h-1]. Before its
// k-th step the front pair has consumed k < h elements, so neither of its
// cursors can have left its run (likewise the back pair): exactly h steps,
// no exhaustion test, and two dependency chains the core can overlap.
func mergeHalves(out, a, b []int32) {
	h := len(a)
	b, out = b[:h], out[:2*h]
	i, j := 0, 0
	p, q := h-1, h-1
	for lo, hi := 0, 2*h-1; lo < h; lo, hi = lo+1, hi-1 {
		x, y := a[i], b[j]
		v, t := y, 0
		if x <= y {
			v, t = x, 1
		}
		out[lo] = v
		i += t
		j += 1 - t

		u, w := a[p], b[q]
		z, s := u, 0
		if u <= w {
			z, s = w, 1
		}
		out[hi] = z
		q -= s
		p -= 1 - s
	}
}

// mergeUneven is the single-direction merge for runs of different lengths
// (the ragged last task of an AnySorter level, the odd splits of Sort): the
// same select, then the rest of the unexhausted run as one copy.
func mergeUneven(out, a, b []int32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		v, t := y, 0
		if x <= y {
			v, t = x, 1
		}
		out[k] = v
		k++
		i += t
		j += 1 - t
	}
	k += copy(out[k:], a[i:])
	copy(out[k:], b[j:])
}

// mergeInterleaved merges runs 2t and 2t+1 of an interleaved region (count
// runs of runSize elements at base) into run t of the output layout (count/2
// runs of 2·runSize elements at the same base): mergeRuns' equal-halves case
// with strided cursors, a step along an input run being count words and along
// the output run count/2.
func mergeInterleaved(dst, src []int32, base, count, runSize, t int) {
	outCount := count / 2
	ia := base + 2*t             // head of run 2t
	ib := ia + 1                 // head of run 2t+1: the two runs sit in adjacent words
	pa := ia + (runSize-1)*count // last element of run 2t
	pb := pa + 1                 // and of run 2t+1
	lo := base + t               // first element of output run t
	mid := lo + runSize*outCount
	switch {
	case src[pa] <= src[ib]:
		copyStrided(dst, lo, outCount, src, ia, count, runSize)
		copyStrided(dst, mid, outCount, src, ib, count, runSize)
		return
	case src[pb] < src[ia]:
		copyStrided(dst, lo, outCount, src, ib, count, runSize)
		copyStrided(dst, mid, outCount, src, ia, count, runSize)
		return
	}
	hi := mid + (runSize-1)*outCount // last element of output run t
	for k := 0; k < runSize; k++ {
		x, y := src[ia], src[ib]
		v, fromA := y, 0
		if x <= y {
			v, fromA = x, 1
		}
		dst[lo] = v
		lo += outCount
		ia += count & -fromA
		ib += count & (fromA - 1)

		u, w := src[pa], src[pb]
		z, fromB := u, 0
		if u <= w {
			z, fromB = w, 1
		}
		dst[hi] = z
		hi -= outCount
		pb -= count & -fromB
		pa -= count & (fromB - 1)
	}
}

// copyStrided copies n words, src[from], src[from+fromStep], … to dst[to],
// dst[to+toStep], ….
func copyStrided(dst []int32, to, toStep int, src []int32, from, fromStep, n int) {
	for ; n > 0; n-- {
		dst[to] = src[from]
		to += toStep
		from += fromStep
	}
}
