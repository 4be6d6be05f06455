package core

// TotalOps returns the batch's aggregate scalar operation count.
func (b Batch) TotalOps() float64 { return float64(b.Tasks) * b.Cost.Ops }
