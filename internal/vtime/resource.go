package vtime

// Resource models a pool of identical servers (e.g. CPU cores, a DMA link)
// with FIFO admission. Requests acquire one server for a caller-computed
// duration and release it automatically when the duration elapses.
//
// The duration of a request may depend on how many servers are busy when it
// starts (e.g. memory-bandwidth contention), so it is supplied by a callback
// invoked at dispatch time.
type Resource struct {
	eng      *Engine
	capacity int
	busy     int
	waiting  []request
	// totalBusy accumulates server-seconds of usage for utilization stats.
	totalBusy float64
}

type request struct {
	// duration computes the service time given the number of servers that
	// are busy including this one.
	duration func(active int) float64
	done     func()
}

// NewResource creates a resource with the given number of servers.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("vtime: resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// BusySeconds reports accumulated server-seconds of service.
func (r *Resource) BusySeconds() float64 { return r.totalBusy }

// Request asks for one server. duration is evaluated when the request is
// dispatched and receives the number of busy servers including this request;
// done runs when service completes. Requests are served FIFO.
func (r *Resource) Request(duration func(active int) float64, done func()) {
	if duration == nil {
		panic("vtime: nil duration function")
	}
	req := request{duration: duration, done: done}
	if r.busy < r.capacity {
		r.dispatch(req)
		return
	}
	r.waiting = append(r.waiting, req)
}

// RequestFixed is Request with a precomputed duration.
func (r *Resource) RequestFixed(d float64, done func()) {
	r.Request(func(int) float64 { return d }, done)
}

func (r *Resource) dispatch(req request) {
	r.busy++
	d := req.duration(r.busy)
	if d < 0 {
		panic("vtime: negative service duration")
	}
	r.totalBusy += d
	r.eng.After(d, func() {
		r.busy--
		if req.done != nil {
			req.done()
		}
		// Serve the next waiting request, if any. Done callbacks may have
		// enqueued more work already; FIFO order is preserved.
		if len(r.waiting) > 0 && r.busy < r.capacity {
			next := r.waiting[0]
			copy(r.waiting, r.waiting[1:])
			r.waiting = r.waiting[:len(r.waiting)-1]
			r.dispatch(next)
		}
	})
}
