// Package mempool is a size-classed buffer pool for the hot paths of the
// serving stack. The paper's HPU cost model charges λ + δ·w per transfer
// and the scheduling layers above already minimize launches; what remains
// on the profile is the allocate-copy-free tax paid per job by the
// algorithms (working and ping-pong buffers) and the wire layer
// (encode/decode buffers). This package makes those buffers a leased,
// measured resource instead of garbage.
//
// Design:
//
//   - Power-of-two size classes from 64 elements up to 1<<24 elements.
//     Get(n) rounds n up to the smallest class and returns a slice of
//     len n from that class's freelist (or a fresh allocation on miss);
//     Put returns the slice to its class. Oversize requests bypass the
//     pool entirely.
//   - Each class retains at most a fixed byte budget; beyond it, Put
//     discards the buffer to the garbage collector so bursty workloads
//     cannot pin unbounded memory.
//   - Per-class hit/miss/put/discard counts and retained bytes are
//     available through Stats.
//   - Returned buffers have UNSPECIFIED contents. Callers must fully
//     write every element they will later read. All current users
//     (ping-pong merge buffers, scan/sum vectors initialized from input,
//     wire staging) satisfy this, which is what keeps results
//     bit-identical with pooling on.
//   - Two environment switches, read at start-up, are the only settings.
//     HPU_NOPOOL=1 disables pooling globally: Get degrades to make, Put
//     to a no-op. This is the A/B escape hatch pinned by the identity
//     tests. HPU_POOLPOISON=1 enables the use-after-put detector: Put
//     fills the buffer with a poison pattern and Get verifies the pattern
//     is intact before reuse, panicking if any element was overwritten
//     while the buffer sat in the freelist.
//
// The pool is safe for concurrent use; every class is guarded by its own
// mutex and the global switches are atomics, so it is race-detector clean.
package mempool

import (
	"fmt"
	"math/bits"
	"os"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Scalar is the set of element types the pool serves. All are plain
// fixed-size machine scalars, so pooled backing arrays carry no pointers
// and never extend object lifetimes.
type Scalar interface {
	~byte | ~int32 | ~int64 | ~int | ~float64
}

const (
	minShift = 6  // smallest class: 64 elements
	maxShift = 24 // largest class: 16Mi elements
	classes  = maxShift - minShift + 1

	// classBudgetBytes caps the bytes each class may retain. With 19
	// classes per typed pool this bounds worst-case retention per pool
	// at classes*classBudgetBytes, though steady-state workloads touch
	// only a few classes.
	classBudgetBytes = 32 << 20

	// poisonByte seeds the per-type poison value. 0x5A is unlikely to
	// survive a legitimate full rewrite of a buffer by accident.
	poisonByte = 0x5A
)

var (
	enabled   atomic.Bool
	poisoning atomic.Bool

	// retainedBytes tracks bytes currently parked across all pools, for
	// leak tests via TotalRetainedBytes.
	retainedBytes atomic.Int64
)

func init() {
	enabled.Store(os.Getenv("HPU_NOPOOL") != "1")
	poisoning.Store(os.Getenv("HPU_POOLPOISON") == "1")
}

// Enabled reports whether pooling is active.
func Enabled() bool { return enabled.Load() }

// class holds one size class's freelist and counters, all under one mutex.
type class[T Scalar] struct {
	mu       sync.Mutex
	free     [][]T
	held     int64 // bytes currently retained in free
	hits     uint64
	misses   uint64
	puts     uint64
	discards uint64
}

// Pool is a size-classed freelist of []T buffers. The zero value is not
// usable; construct with New. Package-level typed pools (Int32s, Int64s)
// cover every element type used on the hot path and share the global
// enable/poison switches.
type Pool[T Scalar] struct {
	name     string
	classes  [classes]class[T]
	oversize atomic.Uint64 // Gets too large for any class
}

// New returns an empty pool. name labels it in Stats output.
func New[T Scalar](name string) *Pool[T] {
	return &Pool[T]{name: name}
}

// Typed pools shared across the repo. Layers lease from these rather than
// constructing their own so the budget, stats and leak tests see one
// global picture.
var (
	Int32s = New[int32]("int32")
	Int64s = New[int64]("int64")
)

// classFor returns the class index whose capacity (1<<(minShift+idx))
// is the smallest holding n elements, or -1 if n exceeds every class.
func classFor(n int) int {
	if n <= 1<<minShift {
		return 0
	}
	shift := bits.Len(uint(n - 1)) // ceil(log2(n))
	if shift > maxShift {
		return -1
	}
	return shift - minShift
}

func elemSize[T Scalar]() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}

func poisonVal[T Scalar]() T {
	return T(poisonByte)
}

// Get leases a buffer of length n with unspecified contents. The caller
// must write every element before reading it and should hand the buffer
// back with Put when its lease ends. n <= 0 returns nil.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	if !enabled.Load() {
		return make([]T, n)
	}
	ci := classFor(n)
	if ci < 0 {
		p.oversize.Add(1)
		return make([]T, n)
	}
	c := &p.classes[ci]
	c.mu.Lock()
	if k := len(c.free); k > 0 {
		buf := c.free[k-1]
		c.free[k-1] = nil
		c.free = c.free[:k-1]
		c.held -= int64(cap(buf)) * elemSize[T]()
		c.hits++
		c.mu.Unlock()
		retainedBytes.Add(-int64(cap(buf)) * elemSize[T]())
		if poisoning.Load() {
			verifyPoison(p.name, buf)
		}
		return buf[:n]
	}
	c.misses++
	c.mu.Unlock()
	return make([]T, n, 1<<(minShift+ci))
}

// Put returns a leased buffer to its class. Buffers whose capacity is not
// a pool class (or anything when pooling is disabled) are dropped for the
// garbage collector; so are buffers that would push the class past its
// retention budget. Put(nil) is a no-op. The caller must not touch the
// slice after Put.
func (p *Pool[T]) Put(s []T) {
	if cap(s) == 0 || !enabled.Load() {
		return
	}
	ci := classFor(cap(s))
	if ci < 0 || cap(s) != 1<<(minShift+ci) {
		// Not one of ours (or oversize): let the GC have it.
		return
	}
	if poisoning.Load() {
		fillPoison(s[:cap(s)])
	}
	bytes := int64(cap(s)) * elemSize[T]()
	c := &p.classes[ci]
	c.mu.Lock()
	c.puts++
	if c.held+bytes > classBudgetBytes {
		c.discards++
		c.mu.Unlock()
		return
	}
	c.free = append(c.free, s[:cap(s)])
	c.held += bytes
	c.mu.Unlock()
	retainedBytes.Add(bytes)
}

func fillPoison[T Scalar](s []T) {
	pv := poisonVal[T]()
	for i := range s {
		s[i] = pv
	}
}

func verifyPoison[T Scalar](name string, s []T) {
	pv := poisonVal[T]()
	for i := range s {
		if s[i] != pv {
			panic(fmt.Sprintf(
				"mempool: use-after-put detected in pool %q: element %d of a pooled buffer (cap %d) was modified while free",
				name, i, cap(s)))
		}
	}
}

// ClassStats is one size class's counters.
type ClassStats struct {
	Elems         int    `json:"elems"` // class capacity in elements
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Puts          uint64 `json:"puts"`
	Discards      uint64 `json:"discards"`
	Retained      int    `json:"retained"` // buffers currently parked
	RetainedBytes int64  `json:"retained_bytes"`
}

// PoolStats is a point-in-time snapshot of one pool. Classes with no
// activity are omitted.
type PoolStats struct {
	Name          string       `json:"name"`
	Oversize      uint64       `json:"oversize"`
	RetainedBytes int64        `json:"retained_bytes"`
	Classes       []ClassStats `json:"classes"`
}

// Stats snapshots the pool's per-class counters.
func (p *Pool[T]) Stats() PoolStats {
	st := PoolStats{Name: p.name, Oversize: p.oversize.Load()}
	for i := range p.classes {
		c := &p.classes[i]
		c.mu.Lock()
		cs := ClassStats{
			Elems:         1 << (minShift + i),
			Hits:          c.hits,
			Misses:        c.misses,
			Puts:          c.puts,
			Discards:      c.discards,
			Retained:      len(c.free),
			RetainedBytes: c.held,
		}
		c.mu.Unlock()
		if cs.Hits|cs.Misses|cs.Puts|cs.Discards == 0 && cs.Retained == 0 {
			continue
		}
		st.RetainedBytes += cs.RetainedBytes
		st.Classes = append(st.Classes, cs)
	}
	return st
}

// Reset drops every retained buffer (counters are kept). Used by tests to
// establish a clean baseline.
func (p *Pool[T]) Reset() {
	for i := range p.classes {
		c := &p.classes[i]
		c.mu.Lock()
		freed := c.held
		c.free = nil
		c.held = 0
		c.mu.Unlock()
		if freed != 0 {
			retainedBytes.Add(-freed)
		}
	}
}

// Stats snapshots every package-level typed pool.
func Stats() []PoolStats {
	return []PoolStats{
		Int32s.Stats(), Int64s.Stats(),
	}
}

// TotalRetainedBytes reports bytes currently parked across all pools
// (package-level and any pool built with New).
func TotalRetainedBytes() int64 { return retainedBytes.Load() }

// ResetAll drops every retained buffer in the package-level typed pools.
func ResetAll() {
	Int32s.Reset()
	Int64s.Reset()
}
