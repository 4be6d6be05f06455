package api

// JobsInFlight reports how many admitted jobs have not yet settled.
func (s *Server) JobsInFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		select {
		case <-j.h.Done():
		default:
			n++
		}
	}
	return n
}
