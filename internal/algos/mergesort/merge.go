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

// wavefront is how many lanes mergeInterleaved advances in lock-step: the
// paper's AMD wavefront and simgpu's default WavefrontWidth. A constant, not
// a knob: it sizes the kernel's stack arrays.
const wavefront = 64

// lane is one merging work-item between steps: its output run t and the
// cursors ia and pa of mergeHalves' front and back pairs into run 2t (a step
// along a run is count words). Their partners into run 2t+1 follow from the
// step number.
type lane struct{ t, ia, pa int }

// mergeInterleaved performs work-items lo..hi−1 of one interleaved device
// level: work-item t merges runs 2t and 2t+1 of the region (count runs of
// runSize elements at base, element j of run r at base + j·count + r) into
// run t of the output layout (count/2 runs of 2·runSize elements at the same
// base). It is mergeRuns' equal-halves case with strided cursors, executed the
// way the §6.3 layout was designed to be read: a wavefront of adjacent lanes
// at a time, each step of every lane before the next step of any, so that one
// step of the wavefront reads and writes a few cache lines instead of one
// line per lane (DESIGN.md §11, "Leaf kernels").
func mergeInterleaved(dst, src []int32, base, count, runSize, lo, hi int) {
	last := (runSize - 1) * count // from the head of a run to its last element
	var merging [wavefront]lane
	var copying [wavefront]int
	for g := lo; g < hi; g += wavefront {
		m, c := 0, 0
		for t := g; t < min(g+wavefront, hi); t++ {
			ia := base + 2*t // runs 2t and 2t+1 sit in adjacent words
			pa := ia + last
			if src[pa] <= src[ia+1] || src[pa+1] < src[ia] {
				copying[c] = t
				c++
				continue
			}
			merging[m] = lane{t, ia, pa}
			m++
		}
		if c > 0 {
			copyRows(dst, src, base, count, runSize, copying[:c])
		}
		if m > 0 {
			lockStep(dst, src, base, count, runSize, merging[:m])
		}
	}
}

// copyRows settles the lanes whose runs do not overlap — mergeRuns'
// block-copy shortcuts. For such a lane row j of the output run is row j of
// its two input runs, ordered, so the lanes go row by row together.
func copyRows(dst, src []int32, base, count, runSize int, lanes []int) {
	outCount := count / 2
	in, front, back := base, base, base+runSize*outCount
	for j := 0; j < runSize; j++ {
		for _, t := range lanes {
			dst[front+t], dst[back+t] = ordered(src[in+2*t], src[in+2*t+1])
		}
		in += count
		front += outCount
		back += outCount
	}
}

// lockStep merges the lanes whose runs overlap: runSize two-ended steps,
// each taken by every lane before the next, so the front and back outputs of
// a step are one row each for all lanes.
func lockStep(dst, src []int32, base, count, runSize int, lanes []lane) {
	outCount := count / 2
	front, back := base, base+(2*runSize-1)*outCount
	if len(lanes) == 1 {
		// One lane — the top level — has no other lane to overlap its steps
		// with: its four cursors stay in registers.
		t, ia, pa := lanes[0].t, lanes[0].ia, lanes[0].pa
		ib, pb := ia+1, pa+1
		for k := 0; k < runSize; k++ {
			fromA := smaller(dst, src, ia, ib, front+t)
			ia += count & -fromA
			ib += count & (fromA - 1)
			fromB := larger(dst, src, pa, pb, back+t)
			pb -= count & -fromB
			pa -= count & (fromB - 1)
			front, back = front+outCount, back-outCount
		}
		return
	}
	// After k steps a lane's front cursors have consumed k elements between
	// them, so ia+ib = 2·head+1 + k·count, and likewise pa+pb = 2·head+1 +
	// 2·(runSize−1)·count − k·count: a lane carries only ia and pa.
	fsum, bsum := 2*base+1, 2*base+1+2*(runSize-1)*count
	for k := 0; k < runSize; k++ {
		for i := range lanes {
			l := &lanes[i]
			l.ia += count & -smaller(dst, src, l.ia, fsum+4*l.t-l.ia, front+l.t)
			l.pa -= count & (larger(dst, src, l.pa, bsum+4*l.t-l.pa, back+l.t) - 1)
		}
		front, back, fsum, bsum = front+outCount, back-outCount, fsum+count, bsum-count
	}
}

// smaller writes the smaller of src[i] and src[j] to dst[out], src[i] on a
// tie, and reports 1 if it took src[i]: the front half of a two-ended step.
func smaller(dst, src []int32, i, j, out int) int {
	x, y := src[i], src[j]
	v, fromI := y, 0
	if x <= y {
		v, fromI = x, 1
	}
	dst[out] = v
	return fromI
}

// larger writes the larger of src[i] and src[j] to dst[out], src[j] on a
// tie, and reports 1 if it took src[j]: the back half of a two-ended step.
func larger(dst, src []int32, i, j, out int) int {
	u, w := src[i], src[j]
	z, fromJ := u, 0
	if u <= w {
		z, fromJ = w, 1
	}
	dst[out] = z
	return fromJ
}
