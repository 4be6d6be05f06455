package simcpu

import "repro/internal/core"

// TaskSeconds reports how long one task of the given cost takes on one core
// with `active` cores streaming concurrently.
func (c *CPU) TaskSeconds(cost core.Cost, active int) float64 {
	return taskCost(cost, c.params.MemWeight) / c.rate(cost.WorkingSet, active)
}
