package core

// TotalOps returns the batch's aggregate scalar operation count.
func (b Batch) TotalOps() float64 { return float64(b.Tasks) * b.Cost.Ops }

// NewRunConfig resolves a list of options into a new RunConfig.
func NewRunConfig(opts ...Option) (c RunConfig) {
	c.Resolve(opts)
	return c
}

// SetHostSplit makes EachSplit cut every batch whose modelled work reaches
// minWork into min(ranges, Tasks) pieces (GOMAXPROCS pieces for ranges 0)
// and returns the function that restores the defaults. Tests that call it
// must not run in parallel with others.
func SetHostSplit(minWork float64, ranges int) (restore func()) {
	w, k := splitMinWork, splitRanges
	splitMinWork, splitRanges = minWork, ranges
	return func() { splitMinWork, splitRanges = w, k }
}
