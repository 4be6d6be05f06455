package mergesort

import (
	"context"

	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/hpu"
)

// decodeInt32s turns fuzz bytes into a slice of int32 values.
func decodeInt32s(data []byte) []int32 {
	var out []int32
	r := bytes.NewReader(data)
	for {
		var v int32
		if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
			return out
		}
		out = append(out, v)
	}
}

// FuzzMergeRuns checks that merging two individually-sorted runs always
// yields the reference sort of their concatenation, and the reference
// kernel's output element for element.
func FuzzMergeRuns(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0}, uint8(2))
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0}, uint8(1))
	f.Add([]byte{1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0}, uint8(3)) // presorted
	f.Add([]byte{6, 0, 0, 0, 5, 0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0}, uint8(3)) // reverse
	f.Add([]byte{7, 0, 0, 0, 7, 0, 0, 0, 7, 0, 0, 0, 7, 0, 0, 0}, uint8(2))                         // all equal
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0}, uint8(0))                                     // empty left run
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0}, uint8(3))                                     // empty right run
	f.Add([]byte{2, 0, 0, 0, 1, 0, 0, 0}, uint8(1))                                                 // 1+1, exchanged
	f.Add([]byte{1, 0, 0, 0, 1, 0, 0, 0}, uint8(1))                                                 // 1+1, tie
	f.Fuzz(func(t *testing.T, data []byte, splitRaw uint8) {
		vals := decodeInt32s(data)
		split := int(splitRaw) % (len(vals) + 1)
		a := append([]int32(nil), vals[:split]...)
		b := append([]int32(nil), vals[split:]...)
		Sort(a)
		Sort(b)
		out, want := make([]int32, len(vals)), make([]int32, len(vals))
		mergeRuns(out, a, b)
		refMergeRuns(want, a, b)
		if !equal(out, want) || !equal(out, reference(vals)) {
			t.Fatalf("mergeRuns(%v, %v) = %v, want %v", a, b, out, want)
		}
	})
}

// FuzzAnySorter runs arbitrary byte-derived inputs and hybrid parameters
// through the full advanced executor on the simulated platform.
func FuzzAnySorter(f *testing.F) {
	f.Add([]byte{9, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0}, uint16(20000), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, alphaRaw uint16, yRaw uint8) {
		in := decodeInt32s(data)
		if len(in) < 2 {
			t.Skip()
		}
		if len(in) > 1<<12 {
			in = in[:1<<12]
		}
		s, err := NewAny(in)
		if err != nil {
			t.Fatal(err)
		}
		prm := advParams{
			Alpha: float64(alphaRaw) / 65535,
			Y:     int(yRaw) % (s.Levels() + 1),
			Split: -1,
		}
		be := hpu.MustSim(hpu.HPU1())
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, s, prm.Alpha, prm.Y, core.WithSplit(prm.Split)); err != nil {
			t.Fatal(err)
		}
		if !equal(s.Result(), reference(in)) {
			t.Fatalf("unsorted output for n=%d prm=%+v", len(in), prm)
		}
	})
}

// FuzzSorterPow2 exercises the power-of-two Sorter with the coalescing
// transformation enabled under arbitrary data.
func FuzzSorterPow2(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 1, 0, 0, 0, 7, 0, 0, 0, 2, 0, 0, 0}, uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, yRaw uint8) {
		vals := decodeInt32s(data)
		n := 4
		for n*2 <= len(vals) && n < 1<<10 {
			n *= 2
		}
		if len(vals) < n {
			t.Skip()
		}
		in := vals[:n]
		s, err := New(in)
		if err != nil {
			t.Fatal(err)
		}
		prm := advParams{
			Alpha: 0.3,
			Y:     int(yRaw) % (s.Levels() + 1),
			Split: -1,
		}
		be := hpu.MustSim(hpu.HPU2())
		if _, err := core.RunAdvancedHybridCtx(context.Background(), be, s, prm.Alpha, prm.Y, core.WithCoalesce(), core.WithSplit(prm.Split)); err != nil {
			t.Fatal(err)
		}
		if !equal(s.Result(), reference(in)) {
			t.Fatalf("unsorted output for n=%d y=%d", n, prm.Y)
		}
	})
}
