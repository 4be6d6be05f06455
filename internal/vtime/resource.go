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
	// complete is r.finish, bound once: the completion event of every
	// request calls it with the request's done.
	complete func(done func())
}

type request struct {
	// duration computes the service time given the number of servers that
	// are busy including this one; nil means the fixed duration d.
	duration func(active int) float64
	d        float64
	done     func()
}

// NewResource creates a resource with the given number of servers.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("vtime: resource capacity must be positive")
	}
	r := &Resource{eng: eng, capacity: capacity}
	r.complete = r.finish
	return r
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
	r.enqueue(request{duration: duration, done: done})
}

// RequestFixed is Request with a precomputed duration.
func (r *Resource) RequestFixed(d float64, done func()) {
	r.enqueue(request{d: d, done: done})
}

func (r *Resource) enqueue(req request) {
	if r.busy < r.capacity {
		r.dispatch(req)
		return
	}
	r.waiting = append(r.waiting, req)
}

func (r *Resource) dispatch(req request) {
	r.busy++
	d := req.d
	if req.duration != nil {
		d = req.duration(r.busy)
	}
	if d < 0 {
		panic("vtime: negative service duration")
	}
	r.totalBusy += d
	r.eng.schedule(r.eng.now+d, event{fn: req.done, call: r.complete})
}

// finish ends a request's service: it frees the server, runs the request's
// done, if any, and serves the next waiting request. Done callbacks may
// have enqueued more work already; FIFO order is preserved.
func (r *Resource) finish(done func()) {
	r.busy--
	if done != nil {
		done()
	}
	if len(r.waiting) > 0 && r.busy < r.capacity {
		next := r.waiting[0]
		copy(r.waiting, r.waiting[1:])
		r.waiting = r.waiting[:len(r.waiting)-1]
		r.dispatch(next)
	}
}
