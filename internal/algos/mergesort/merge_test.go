package mergesort

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/workload"
)

// refMergeRuns is the textbook merge the package shipped until the
// branch-free kernels replaced it: the reference the differential tests and
// the benchmarks compare against.
func refMergeRuns(out, a, b []int32) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out[k] = a[i]
			i++
		} else {
			out[k] = b[j]
			j++
		}
		k++
	}
	for i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
}

// refMergeInterleaved is the previous interleaved kernel, kept the same way.
func refMergeInterleaved(dst, src []int32, base, count, runSize, t int) {
	at := func(run, j int) int32 { return src[base+j*count+run] }
	outCount := count / 2
	i, j := 0, 0
	for k := 0; k < 2*runSize; k++ {
		var v int32
		switch {
		case i == runSize:
			v = at(2*t+1, j)
			j++
		case j == runSize:
			v = at(2*t, i)
			i++
		case at(2*t, i) <= at(2*t+1, j):
			v = at(2*t, i)
			i++
		default:
			v = at(2*t+1, j)
			j++
		}
		dst[base+k*outCount+t] = v
	}
}

// perLaneMergeInterleaved is the kernel mergeInterleaved replaced (PR 19):
// the same two-ended select, one work-item run to completion per call, as
// Batch.Each ran it through a Run body. BenchmarkMergeInterleavedLevel's
// baseline.
func perLaneMergeInterleaved(dst, src []int32, base, count, runSize, t int) {
	outCount := count / 2
	ia := base + 2*t
	ib := ia + 1
	pa := ia + (runSize-1)*count
	pb := pa + 1
	lo := base + t
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
	hi := mid + (runSize-1)*outCount
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

// sortedRuns returns every nondecreasing run of up to maxLen keys.
func sortedRuns(keys []int32, maxLen int) [][]int32 {
	runs := [][]int32{nil}
	var extend func(run []int32, from int)
	extend = func(run []int32, from int) {
		if len(run) == maxLen {
			return
		}
		for k := from; k < len(keys); k++ {
			next := append(slices.Clone(run), keys[k])
			runs = append(runs, next)
			extend(next, k)
		}
	}
	extend(nil, 0)
	return runs
}

// TestMergeRunsExhaustive merges every pair of sorted runs of 0..9 keys
// drawn from five values that include both ends of the int32 range (2002
// runs, four million pairs), so every branch of mergeRuns — the 1+1
// exchange, both block-copy shortcuts, the two-ended merge, the uneven merge
// and its tails — meets every tie and boundary pattern a short run can hold.
func TestMergeRunsExhaustive(t *testing.T) {
	const maxLen = 9
	runs := sortedRuns([]int32{math.MinInt32, -1, 0, 1, math.MaxInt32}, maxLen)
	got, want := make([]int32, 2*maxLen), make([]int32, 2*maxLen)
	for _, a := range runs {
		for _, b := range runs {
			n := len(a) + len(b)
			mergeRuns(got[:n], a, b)
			refMergeRuns(want[:n], a, b)
			if !slices.Equal(got[:n], want[:n]) {
				t.Fatalf("mergeRuns(%v, %v) = %v, want %v", a, b, got[:n], want[:n])
			}
		}
	}
}

// TestMergeHalvesDuplicates drives the two-ended merge where its front and
// back cursors meet inside long stretches of equal keys: power-of-two halves
// up to 64 over one to four distinct values.
func TestMergeHalvesDuplicates(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for h := 1; h <= 64; h *= 2 {
		got, want := make([]int32, 2*h), make([]int32, 2*h)
		for distinct := 1; distinct <= 4; distinct++ {
			for trial := 0; trial < 200; trial++ {
				in := workload.FewDistinct(2*h, distinct, r.Int63())
				a, b := in[:h], in[h:]
				slices.Sort(a)
				slices.Sort(b)
				mergeRuns(got, a, b)
				refMergeRuns(want, a, b)
				if !slices.Equal(got, want) {
					t.Fatalf("h=%d: mergeRuns(%v, %v) = %v, want %v", h, a, b, got, want)
				}
				mergeHalves(got, a, b) // without the shortcuts in front of it
				if !slices.Equal(got, want) {
					t.Fatalf("h=%d: mergeHalves(%v, %v) = %v, want %v", h, a, b, got, want)
				}
			}
		}
	}
}

// interleave lays consecutive runs of runSize keys out as one region of the
// §6.3 device layout: element j of run r goes to j·count + r.
func interleave(vals []int32, runSize int) []int32 {
	count := len(vals) / runSize
	out := make([]int32, len(vals))
	for run := 0; run < count; run++ {
		for j := 0; j < runSize; j++ {
			out[j*count+run] = vals[run*runSize+j]
		}
	}
	return out
}

// checkMergeInterleaved lays vals out as one interleaved region of runs of
// runSize keys (each run sorted first) at offset base, with guard words on
// both sides, merges every pair of runs through mergeInterleaved called once
// per range of cuts, and requires the buffer refMergeInterleaved leaves
// lane by lane, the words around the region included.
func checkMergeInterleaved(t *testing.T, vals []int32, runSize, base int, cuts []int) {
	t.Helper()
	for off := 0; off < len(vals); off += runSize {
		slices.Sort(vals[off : off+runSize])
	}
	count := len(vals) / runSize
	const guard = 3 // words after the region; base words precede it
	src := make([]int32, base+len(vals)+guard)
	copy(src[base:], interleave(vals, runSize))
	got := make([]int32, len(src))
	for i := range got {
		got[i] = int32(0x5a5a5a5a) + int32(i)
	}
	want := slices.Clone(got)
	outside := slices.Clone(got)
	for i := 1; i < len(cuts); i++ {
		mergeInterleaved(got, src, base, count, runSize, cuts[i-1], cuts[i])
	}
	for lane := 0; lane < count/2; lane++ {
		refMergeInterleaved(want, src, base, count, runSize, lane)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("count=%d runSize=%d base=%d cuts=%v: got %v, want %v", count, runSize, base, cuts, got, want)
	}
	if !slices.Equal(got[:base], outside[:base]) || !slices.Equal(got[base+len(vals):], outside[base+len(vals):]) {
		t.Fatalf("count=%d runSize=%d base=%d cuts=%v: wrote outside the region: %v", count, runSize, base, cuts, got)
	}
}

// FuzzMergeInterleaved merges every pair of runs of an arbitrary interleaved
// region of up to 200 lanes — past the first three wavefronts — with the
// kernel's range form cut at random points and with the reference kernel,
// and requires identical buffers, the words around the region included.
// cutSeed 0 is one call over all lanes.
func FuzzMergeInterleaved(f *testing.F) {
	f.Add([]byte{5, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 4, 0, 0, 0}, uint8(1), uint8(1), uint8(0), uint64(0))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0}, uint8(3), uint8(0), uint8(2), uint64(0))             // unit runs
	f.Add([]byte{7, 0, 0, 0}, uint8(0), uint8(8), uint8(5), uint64(0))                                     // all equal
	f.Add([]byte{0, 0, 0, 128, 255, 255, 255, 127}, uint8(7), uint8(4), uint8(1), uint64(0))               // both ends of the range
	f.Add([]byte{9, 0, 0, 0, 8, 0, 0, 0, 7, 0, 0, 0, 6, 0, 0, 0}, uint8(2), uint8(2), uint8(3), uint64(0)) // runs that do not overlap
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0}, uint8(199), uint8(16), uint8(0), uint64(7))
	f.Add([]byte{2, 0, 0, 0, 7, 0, 0, 0, 1, 0, 0, 0}, uint8(129), uint8(2), uint8(4), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, lanesRaw, runSizeRaw, baseRaw uint8, cutSeed uint64) {
		keys := decodeInt32s(data)
		if len(keys) == 0 {
			t.Skip()
		}
		lanes := 1 + int(lanesRaw)%200
		runSize := 1 + int(runSizeRaw)%17
		vals := make([]int32, 2*lanes*runSize)
		for i := range vals {
			vals[i] = keys[i%len(keys)]
		}
		cuts := []int{0, lanes}
		if cutSeed != 0 {
			rng := rand.New(rand.NewSource(int64(cutSeed)))
			cuts = cuts[:1]
			for lo := 0; lo < lanes; {
				lo += 1 + rng.Intn(lanes-lo)
				cuts = append(cuts, lo)
			}
		}
		checkMergeInterleaved(t, vals, runSize, int(baseRaw)%9, cuts)
	})
}

// TestMergeInterleavedLockStep runs the range kernel over one call per
// region at lane counts on both sides of one, two and three wavefronts, run
// sizes on both sides of a power of two, and the five benchmark classes plus
// a class that mixes both shortcuts and merging lanes inside every
// wavefront.
func TestMergeInterleavedLockStep(t *testing.T) {
	classes := map[string]func(lanes, runSize int) []int32{"mixed": mixedLanes}
	for _, class := range benchClasses {
		gen := class.gen
		classes[class.name] = func(lanes, runSize int) []int32 { return gen(2 * lanes * runSize) }
	}
	for name, gen := range classes {
		for _, lanes := range []int{1, 2, 3, 7, 8, 9, 63, 64, 65, 127, 128, 129} {
			for _, runSize := range []int{1, 2, 3, 16, 17} {
				t.Run(fmt.Sprintf("%s/lanes=%d/run=%d", name, lanes, runSize), func(t *testing.T) {
					checkMergeInterleaved(t, gen(lanes, runSize), runSize, 1, []int{0, lanes})
				})
			}
		}
	}
}

// mixedLanes returns the runs of lanes work-items whose lanes take, in turn,
// the first shortcut (run 2t below run 2t+1), the second (above it) and the
// select loop (random keys in both).
func mixedLanes(lanes, runSize int) []int32 {
	vals := workload.Uniform(2*lanes*runSize, 3)
	for i := range vals {
		vals[i] &= 1023
	}
	for lane := 0; lane < lanes; lane++ {
		a := vals[2*lane*runSize : (2*lane+1)*runSize]
		b := vals[(2*lane+1)*runSize : (2*lane+2)*runSize]
		switch lane % 3 {
		case 0:
			for i := range b {
				b[i] += 1024
			}
		case 1:
			for i := range a {
				a[i] += 1024
			}
		}
	}
	return vals
}

// TestMergeInterleavedAllocs pins the range kernel's per-wavefront state to
// the stack: one call over three wavefronts allocates nothing.
func TestMergeInterleavedAllocs(t *testing.T) {
	const lanes, runSize = 3 * wavefront, 16
	src := interleave(mixedLanes(lanes, runSize), runSize)
	dst := make([]int32, len(src))
	if allocs := testing.AllocsPerRun(10, func() {
		mergeInterleaved(dst, src, 0, 2*lanes, runSize, 0, lanes)
	}); allocs != 0 {
		t.Errorf("mergeInterleaved allocates %.0f times per call, want 0", allocs)
	}
}

// benchClasses are the input classes of the kernel benchmarks, as the sort
// input a merge level sees them: after each half of a block is sorted,
// presorted and all-equal blocks hit the first block-copy shortcut, reverse
// blocks the second, and random and four-distinct blocks the select loop.
var benchClasses = []struct {
	name string
	gen  func(total int) []int32
}{
	{"random", func(total int) []int32 { return workload.Uniform(total, 1) }},
	{"presorted", workload.Sorted},
	{"reverse", workload.Reverse},
	{"all-equal", func(total int) []int32 { return workload.FewDistinct(total, 1, 1) }},
	{"four-distinct", func(total int) []int32 { return workload.FewDistinct(total, 4, 1) }},
}

// benchArena returns 2^20 keys of a class cut into blocks of n, each block's
// two halves sorted. One benchmark operation merges one block, and
// successive operations walk the arena: a loop over a single small block
// would let the branch predictor learn that block's outcomes by heart and
// time the reference kernel as if its branch were free.
func benchArena(gen func(int) []int32, n int) []int32 {
	vals := gen(1 << 20)
	for off := 0; off < len(vals); off += n / 2 {
		slices.Sort(vals[off : off+n/2])
	}
	return vals
}

var benchSizes = []int{16, 1 << 10, 1 << 20}

// BenchmarkMergeRuns times one contiguous merge producing n keys, new kernel
// against reference, per input class. EXPERIMENTS.md has the table.
func BenchmarkMergeRuns(b *testing.B) {
	kernels := []struct {
		name  string
		merge func(out, a, b []int32)
	}{{"new", mergeRuns}, {"ref", refMergeRuns}}
	for _, class := range benchClasses {
		for _, n := range benchSizes {
			src := benchArena(class.gen, n)
			out := make([]int32, len(src))
			for _, k := range kernels {
				b.Run(fmt.Sprintf("%s/n=%d/%s", class.name, n, k.name), func(b *testing.B) {
					b.SetBytes(int64(4 * n))
					b.ReportAllocs()
					off := 0
					for i := 0; i < b.N; i++ {
						k.merge(out[off:off+n], src[off:off+n/2], src[off+n/2:off+n])
						if off += n; off == len(src) {
							off = 0
						}
					}
				})
			}
		}
	}
}

// BenchmarkMergeInterleaved is the same table for the device layout: the
// arena's half-blocks become the runs of one interleaved region, and one
// operation is one work-item's merge of two of them into n keys — the range
// kernel called for one lane, as the top levels of a device run call it,
// against the per-lane kernel it replaced and the reference. One work-item
// cannot show lock-step; BenchmarkMergeInterleavedLevel times whole levels.
func BenchmarkMergeInterleaved(b *testing.B) {
	kernels := []struct {
		name  string
		merge func(dst, src []int32, base, count, runSize, t int)
	}{
		{"new", func(dst, src []int32, base, count, runSize, t int) {
			mergeInterleaved(dst, src, base, count, runSize, t, t+1)
		}},
		{"per-lane", perLaneMergeInterleaved},
		{"ref", refMergeInterleaved},
	}
	for _, class := range benchClasses {
		for _, n := range benchSizes {
			src := interleave(benchArena(class.gen, n), n/2)
			dst := make([]int32, len(src))
			count := len(src) / (n / 2)
			for _, k := range kernels {
				b.Run(fmt.Sprintf("%s/n=%d/%s", class.name, n, k.name), func(b *testing.B) {
					b.SetBytes(int64(4 * n))
					b.ReportAllocs()
					t := 0
					for i := 0; i < b.N; i++ {
						k.merge(dst, src, 0, count, n/2, t)
						if t++; t == count/2 {
							t = 0
						}
					}
				})
			}
		}
	}
}

// BenchmarkMergeInterleavedLevel times one whole interleaved device level —
// every work-item of one GPUCombineBatch — as the per-lane kernel in a loop
// (how Batch.Each ran a Run body) and as one call of the range kernel, per
// input class. The levels are where the per-lane order collapses (EXPERIMENTS.md,
// "Lock-step lanes"): the widest (runs of 8 merged), the middle one, and level
// 5, 32 lanes, half a wavefront.
func BenchmarkMergeInterleavedLevel(b *testing.B) {
	for _, logN := range []int{16, 20, 22} {
		n := 1 << logN
		for _, level := range []int{logN - 4, logN / 2, 5} {
			runSize := n >> (level + 1)
			count := n / runSize
			for _, class := range benchClasses {
				b.Run(fmt.Sprintf("n=2^%d/level=%d/%s", logN, level, class.name), func(b *testing.B) {
					vals := class.gen(n)
					for off := 0; off < n; off += runSize {
						slices.Sort(vals[off : off+runSize])
					}
					src := interleave(vals, runSize)
					dst := make([]int32, n)
					b.Run("per-lane", func(b *testing.B) {
						b.SetBytes(int64(4 * n))
						for i := 0; i < b.N; i++ {
							for t := 0; t < count/2; t++ {
								perLaneMergeInterleaved(dst, src, 0, count, runSize, t)
							}
						}
					})
					b.Run("range", func(b *testing.B) {
						b.SetBytes(int64(4 * n))
						for i := 0; i < b.N; i++ {
							mergeInterleaved(dst, src, 0, count, runSize, 0, count/2)
						}
					})
				})
			}
		}
	}
}
