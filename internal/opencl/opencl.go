// Package opencl is a minimal OpenCL-style host API (§3.1 of the paper) over
// the simulated GPU device: contexts, device buffers, an in-order command
// queue, and NDRange kernel launches whose work-items receive global/local
// ids — the programming model Algorithm 3 ("functionGPU") targets. The
// paper's host programs for mergesort map onto this API directly; the
// package exists so the reproduction includes the substrate the paper's
// implementation was written against, and so new device kernels can be
// written in the paper's idiom.
//
// Kernels execute functionally on buffer memory; time advances on the
// context's virtual clock using the internal/simgpu cost model. Transfers
// between host and device pay the platform's λ + δ·w link cost. Work-group
// barriers are not modeled: the framework's kernels (like the paper's) are
// barrier-free, with one independent task per work-item.
//
// Kept by the ROADMAP 3(e) audit: it reproduces the paper's §3.1
// programming model, and examples/opencl-sum is written against it.
package opencl

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hpu"
)

// Context owns a simulated device and its command queues.
type Context struct {
	sim *hpu.Sim
}

// CreateContext builds a context for the platform's device.
func CreateContext(pl hpu.Platform) (*Context, error) {
	sim, err := hpu.NewSim(pl)
	if err != nil {
		return nil, err
	}
	return &Context{sim: sim}, nil
}

// DeviceInfo describes the context's device, as clGetDeviceInfo would.
type DeviceInfo struct {
	Name        string
	ComputeUnit int // physical processing elements
	Saturation  int // empirical parallel width g
	Gamma       float64
}

// Device returns the device description.
func (c *Context) Device() DeviceInfo {
	p := c.sim.Platform().GPU
	return DeviceInfo{
		Name:        p.Name,
		ComputeUnit: p.PhysicalPEs,
		Saturation:  p.SatThreads,
		Gamma:       p.Gamma,
	}
}

// Now reports the context's virtual time in seconds.
func (c *Context) Now() float64 { return c.sim.Now() }

// Buffer is a device-resident memory object.
type Buffer[T any] struct {
	ctx *Context
	mem []T
}

// CreateBuffer allocates a device buffer of n elements.
func CreateBuffer[T any](ctx *Context, n int) (*Buffer[T], error) {
	if n <= 0 {
		return nil, fmt.Errorf("opencl: buffer size %d must be positive", n)
	}
	return &Buffer[T]{ctx: ctx, mem: make([]T, n)}, nil
}

// Len returns the buffer's element count.
func (b *Buffer[T]) Len() int { return len(b.mem) }

// Mem exposes the device memory for kernels to close over, the counterpart
// of passing the buffer as a kernel argument. Host code must not touch it
// outside enqueued commands; use EnqueueWrite/EnqueueRead instead.
func (b *Buffer[T]) Mem() []T { return b.mem }

// Queue is an in-order command queue: enqueued commands execute one after
// another in submission order, as OpenCL's default queues do.
type Queue struct {
	ctx *Context
	ops []func(done func())
}

// CreateQueue builds an in-order queue on the context.
func CreateQueue(ctx *Context) *Queue { return &Queue{ctx: ctx} }

// bytesOf estimates the wire size of n elements of T (4 bytes assumed for
// int32-like payloads, 8 otherwise; the link model only needs magnitude).
func bytesOf[T any](n int) int64 {
	var t T
	switch any(t).(type) {
	case int32, uint32, float32:
		return int64(n) * 4
	default:
		return int64(n) * 8
	}
}

// EnqueueWrite copies host data into the buffer, paying the link cost.
func EnqueueWrite[T any](q *Queue, b *Buffer[T], host []T) error {
	if len(host) > len(b.mem) {
		return fmt.Errorf("opencl: write of %d elements into buffer of %d", len(host), len(b.mem))
	}
	data := append([]T(nil), host...)
	q.ops = append(q.ops, func(done func()) {
		q.ctx.sim.TransferToGPU(bytesOf[T](len(data)), func() {
			copy(b.mem, data)
			done()
		})
	})
	return nil
}

// EnqueueRead copies the buffer back to host memory, paying the link cost.
// The destination is filled when Finish returns.
func EnqueueRead[T any](q *Queue, b *Buffer[T], host []T) error {
	if len(host) > len(b.mem) {
		return fmt.Errorf("opencl: read of %d elements from buffer of %d", len(host), len(b.mem))
	}
	q.ops = append(q.ops, func(done func()) {
		q.ctx.sim.TransferToCPU(bytesOf[T](len(host)), func() {
			copy(host, b.mem[:len(host)])
			done()
		})
	})
	return nil
}

// WorkItem carries the ids a kernel instance can query, mirroring
// get_global_id / get_local_id / get_group_id.
type WorkItem struct {
	Global int
	Local  int
	Group  int
}

// Kernel is the body executed once per work-item.
type Kernel func(wi WorkItem)

// LaunchCost describes a kernel's per-work-item cost profile for the device
// timing model.
type LaunchCost struct {
	// Ops and MemWords are per-item, in the platform's normalized units.
	Ops      float64
	MemWords float64
	// Coalesced marks adjacent-work-item locality of global accesses.
	Coalesced bool
	// Divergent marks data-dependent control flow (defeats latency hiding).
	Divergent bool
}

// EnqueueNDRange launches globalSize work-items organized in groups of
// localSize (the last group may be partial). The kernel runs functionally at
// dequeue time; the launch occupies the device per the simgpu model.
func EnqueueNDRange(q *Queue, k Kernel, globalSize, localSize int, cost LaunchCost) error {
	if k == nil {
		return fmt.Errorf("opencl: nil kernel")
	}
	if globalSize <= 0 || localSize <= 0 {
		return fmt.Errorf("opencl: invalid NDRange %d/%d", globalSize, localSize)
	}
	q.ops = append(q.ops, func(done func()) {
		batch := core.Batch{
			Tasks: globalSize,
			Cost: core.Cost{
				Ops: cost.Ops, MemWords: cost.MemWords,
				Coalesced: cost.Coalesced, Divergent: cost.Divergent,
			},
			Run: func(id int) {
				k(WorkItem{Global: id, Local: id % localSize, Group: id / localSize})
			},
		}
		q.ctx.sim.GPU().Submit(batch, done)
	})
	return nil
}

// Finish executes all enqueued commands in order and blocks until the last
// completes, like clFinish.
func (q *Queue) Finish() {
	ops := q.ops
	q.ops = nil
	completed := false
	var at func(i int)
	at = func(i int) {
		if i == len(ops) {
			completed = true
			return
		}
		ops[i](func() { at(i + 1) })
	}
	at(0)
	q.ctx.sim.Wait()
	if !completed {
		panic("opencl: queue did not drain")
	}
}
