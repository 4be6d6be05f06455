package api

import (
	"io"

	"repro/internal/mempool"
)

// SwapFrameBytes makes the frame codec reverse each element's bytes, as it
// does on a big-endian host, until the returned function is called.
func SwapFrameBytes() (restore func()) {
	was := bigEndian
	bigEndian = true
	return func() { bigEndian = was }
}

// ReadLeasedInt32Frame decodes an int32 frame as the server's request path
// does, into a vector leased from mempool.Int32s.
func ReadLeasedInt32Frame(r io.Reader, maxBytes int64) ([]int32, error) {
	return readFrame(r, maxBytes, mempool.Int32s)
}

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
