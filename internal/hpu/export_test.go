package hpu

import "repro/internal/simcpu"

// SimCPU returns the simulated CPU.
func (s *Sim) SimCPU() *simcpu.CPU { return s.cpu }
