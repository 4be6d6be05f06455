package vtime

// Resource models a pool of identical servers (e.g. CPU cores, a DMA link)
// with FIFO admission. Requests acquire one server for a duration and
// release it automatically when the duration elapses.
//
// A request's duration is either fixed by the caller (RequestFixed) or
// priced at dispatch by the resource's price function (Request), which sees
// how many servers are busy when the request starts (e.g. memory-bandwidth
// contention). Neither kind allocates: a request carries its own data, and
// the requests of a group share one recycled counter.
type Resource struct {
	eng      *Engine
	capacity int
	busy     int
	waiting  []request
	// totalBusy accumulates server-seconds of usage for utilization stats.
	totalBusy float64
	// price turns a priced request's amount and working set into its
	// service time, given the number of busy servers including this one.
	price func(amount float64, ws int64, active int) float64
	// groups holds the open groups' counters; a Join handle is an index
	// into it plus one, and free lists the slots to reuse.
	groups []group
	free   []int32
}

// request is one server acquisition. A fixed request (join 0) lasts d and
// runs done when it completes. A priced request belongs to the group join:
// d is its amount, which the resource's price function turns into a
// duration at dispatch, and its completion counts toward the group.
type request struct {
	d    float64
	ws   int64
	join int32
	done func()
}

// group is the shared completion of Join's requests: done runs when left
// reaches zero.
type group struct {
	left int
	done func()
}

// NewResource creates a resource with the given number of servers, for
// fixed-duration requests.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("vtime: resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity}
}

// NewPricedResource creates a resource whose Requests are priced at
// dispatch by price, bound once here.
func NewPricedResource(eng *Engine, capacity int, price func(amount float64, ws int64, active int) float64) *Resource {
	if price == nil {
		panic("vtime: nil price function")
	}
	r := NewResource(eng, capacity)
	r.price = price
	return r
}

// BusySeconds reports accumulated server-seconds of service.
func (r *Resource) BusySeconds() float64 { return r.totalBusy }

// Join opens a group of n requests: done, if non-nil, runs once, at the
// completion of the last of them. The handle it returns is valid for
// exactly n Requests.
func (r *Resource) Join(n int, done func()) int32 {
	if n <= 0 {
		panic("vtime: Join requires n > 0")
	}
	g := group{left: n, done: done}
	if k := len(r.free); k > 0 {
		i := r.free[k-1]
		r.free = r.free[:k-1]
		r.groups[i] = g
		return i + 1
	}
	r.groups = append(r.groups, g)
	return int32(len(r.groups))
}

// Request asks for one server for a request of the given amount and working
// set, priced when it is dispatched; its completion counts toward the group
// join that Join returned. Requests are served FIFO.
func (r *Resource) Request(amount float64, ws int64, join int32) {
	if r.price == nil {
		panic("vtime: Request on a resource without a price function")
	}
	if join <= 0 || int(join) > len(r.groups) || r.groups[join-1].left <= 0 {
		panic("vtime: Request with a closed group")
	}
	r.enqueue(request{d: amount, ws: ws, join: join})
}

// RequestFixed asks for one server for d seconds; done, if non-nil, runs
// when service completes. Requests are served FIFO.
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
	if req.join > 0 {
		d = r.price(d, req.ws, r.busy)
	}
	if d < 0 {
		panic("vtime: negative service duration")
	}
	r.totalBusy += d
	r.eng.schedule(r.eng.now+d, event{fn: req.done, res: r, join: req.join})
}

// finish ends a request's service: it frees the server, runs the request's
// done (or, for a group's last request, the group's), if any, and serves
// the next waiting request. Done callbacks may have enqueued more work
// already; FIFO order is preserved.
func (r *Resource) finish(done func(), join int32) {
	r.busy--
	if join > 0 {
		g := &r.groups[join-1]
		if g.left--; g.left > 0 {
			done = nil
		} else {
			done, g.done = g.done, nil
			r.free = append(r.free, join-1)
		}
	}
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
