package vtime

// Pending reports how many events are queued but not yet executed.
func (e *Engine) Pending() int { return len(e.queue) }

// RunUntil executes events with time <= t, then advances the clock to t.
// Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Time) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		e.step()
	}
	if t > e.now {
		e.now = t
	}
}

// Busy reports how many servers are currently serving requests.
func (r *Resource) Busy() int { return r.busy }

// QueueLen reports how many requests are waiting for a server.
func (r *Resource) QueueLen() int { return len(r.waiting) }
