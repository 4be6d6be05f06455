package core

import (
	"math/bits"
	"sync"

	"repro/internal/metrics"
)

// SegmentAllocator is implemented by backends that manage device-side
// staging memory as leased segments. Executors that ship data to the device
// lease a segment for the transfer's footprint and release it when the data
// has left the device, so repeated runs of the same shape reuse device
// allocations instead of paying a fresh device malloc per run — the λ-side
// analogue of the host mempool. The simulator models this as accounting
// (its device memory is host memory); a real device adapter would back
// Segment with an actual device allocation.
type SegmentAllocator interface {
	// AllocSegment leases a device segment of at least the given byte
	// size. The returned segment must be Released exactly once.
	AllocSegment(bytes int64) *Segment
}

// Unwrapper is implemented by backend decorators (fault injection) so
// capability probes can reach inner layers that the decorator does not
// forward explicitly.
type Unwrapper interface {
	Unwrap() Backend
}

// segmentAllocator walks the backend decorator chain to the first layer
// that can lease device segments, or nil.
func segmentAllocator(be Backend) SegmentAllocator {
	for be != nil {
		if sa, ok := be.(SegmentAllocator); ok {
			return sa
		}
		u, ok := be.(Unwrapper)
		if !ok {
			return nil
		}
		be = u.Unwrap()
	}
	return nil
}

// Segment is one leased device staging range. Its capacity is the size
// class the cache rounded the request up to.
type Segment struct {
	cache *SegmentCache
	class int64
}

// Bytes returns the segment's capacity.
func (s *Segment) Bytes() int64 {
	if s == nil {
		return 0
	}
	return s.class
}

// Release returns the segment to its cache for reuse. Safe on nil;
// releasing twice is an accounting bug and panics.
func (s *Segment) Release() {
	if s == nil || s.cache == nil {
		return
	}
	c := s.cache
	s.cache = nil
	c.release(s.class)
}

// SegmentCache is a size-classed cache of device staging segments. Alloc
// rounds requests up to a power of two and reuses a free segment of that
// class when one is resident, only growing device residency on a miss.
// Because the backends in this repo execute functionally on host memory,
// the cache tracks residency and reuse as accounting (what a device
// allocator pool would do), giving the executors and metrics the same
// lease discipline a real device adapter needs.
//
// The zero value is ready to use. Safe for concurrent use.
type SegmentCache struct {
	mu       sync.Mutex
	free     map[int64]int64 // class size -> free segment count
	resident int64           // bytes held by the cache, free + leased
	leased   int64
	allocs   uint64 // misses: residency had to grow
	reuses   uint64 // hits: a parked segment was re-leased

	mAllocs   *metrics.Counter
	mReuses   *metrics.Counter
	mResident *metrics.Gauge
}

// SetMetrics attaches the cache's instruments to r under the given name
// prefix: <prefix>_segment_allocs_total, <prefix>_segment_reuses_total,
// <prefix>_segment_resident_bytes. A nil registry detaches.
func (c *SegmentCache) SetMetrics(prefix string, r *metrics.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r == nil {
		c.mAllocs, c.mReuses, c.mResident = nil, nil, nil
		return
	}
	c.mAllocs = r.Counter(prefix + "_segment_allocs_total")
	c.mReuses = r.Counter(prefix + "_segment_reuses_total")
	c.mResident = r.Gauge(prefix + "_segment_resident_bytes")
}

// segmentClass rounds n up to a power of two (minimum 256 bytes).
func segmentClass(n int64) int64 {
	const minClass = 256
	if n <= minClass {
		return minClass
	}
	return 1 << bits.Len64(uint64(n-1))
}

// AllocSegment leases a segment of at least bytes. Never returns nil.
func (c *SegmentCache) AllocSegment(bytes int64) *Segment {
	class := segmentClass(bytes)
	c.mu.Lock()
	if c.free[class] > 0 {
		c.free[class]--
		c.leased += class
		c.reuses++
		m := c.mReuses
		c.mu.Unlock()
		m.Inc()
		return &Segment{cache: c, class: class}
	}
	if c.free == nil {
		c.free = make(map[int64]int64)
	}
	c.resident += class
	c.leased += class
	c.allocs++
	mA, mR := c.mAllocs, c.mResident
	resident := c.resident
	c.mu.Unlock()
	mA.Inc()
	mR.Set(resident)
	return &Segment{cache: c, class: class}
}

func (c *SegmentCache) release(class int64) {
	c.mu.Lock()
	if c.leased < class {
		c.mu.Unlock()
		panic("core: segment released twice")
	}
	c.leased -= class
	c.free[class]++
	c.mu.Unlock()
}

// SegmentStats is a point-in-time snapshot of a cache.
type SegmentStats struct {
	Allocs        uint64 `json:"allocs"`
	Reuses        uint64 `json:"reuses"`
	ResidentBytes int64  `json:"resident_bytes"`
	LeasedBytes   int64  `json:"leased_bytes"`
}

// Stats snapshots the cache counters.
func (c *SegmentCache) Stats() SegmentStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SegmentStats{
		Allocs:        c.allocs,
		Reuses:        c.reuses,
		ResidentBytes: c.resident,
		LeasedBytes:   c.leased,
	}
}

// Trim drops the cache's free segments, shrinking modeled residency to the
// currently leased bytes. Backends call it on close or drain.
func (c *SegmentCache) Trim() {
	c.mu.Lock()
	c.free = nil
	c.resident = c.leased
	m := c.mResident
	resident := c.resident
	c.mu.Unlock()
	m.Set(resident)
}
