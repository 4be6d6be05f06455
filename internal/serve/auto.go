package serve

// Strategy Auto: the dispatch-time glue between the scheduler and the
// online calibrator (internal/autotune). A job submitted with Strategy
// Auto is priced at placement against the chosen device's calibration —
// bf-cpu vs gpu-only vs every basic-hybrid crossover vs an (α, y) grid of
// advanced-hybrid divisions — and the argmin runs. Every clean attempt
// (auto or fixed-strategy) feeds the device's calibration with the intervals
// its run measured, so a server warms up from its regular traffic.
// DESIGN.md §16.

import (
	"sync"

	"repro/internal/autotune"
	"repro/internal/core"
)

// autoSpec builds the pricing spec for alg on be, or ok=false when the
// algorithm exports no cost model (then Auto degrades to BreadthFirstCPU).
func autoSpec(alg core.Alg, be core.Backend) (autotune.Spec, bool) {
	m, ok := alg.(core.Modeled)
	if !ok {
		return autotune.Spec{}, false
	}
	sp := autotune.Spec{
		Alg: alg.Name(), N: alg.N(),
		A: alg.Arity(), B: alg.Shrink(), Levels: alg.Levels(),
		F: m.ModelF(), Leaf: m.ModelLeaf(),
		P: be.CPU().Parallelism(),
	}
	if g := be.GPU(); g != nil {
		if galg, ok := alg.(core.GPUAlg); ok {
			sp.HasGPU = true
			sp.G = g.Parallelism()
			sp.Gamma = be.GPUGamma()
			sp.Bytes = galg.GPUBytes(0, 0, 1)
		}
	}
	return sp, true
}

// strategyFromChoice maps a decision's strategy name back to the enum.
func strategyFromChoice(name string) Strategy {
	switch name {
	case autotune.ChoiceGPUOnly:
		return GPUOnly
	case autotune.ChoiceBasic:
		return BasicHybrid
	case autotune.ChoiceAdvanced:
		return AdvancedHybrid
	}
	return BreadthFirstCPU
}

// decideAutoLocked sets the job's plan to the auto decision against a
// device's calibration (BreadthFirstCPU when the algorithm cannot be
// priced). allowGPU=false restricts pricing to the CPU path — used while the
// device's breaker is shedding. The decision's predicted makespan replaces
// the job's placement cost, so PlaceModeledWork accounts the device's
// backlog with the same model that chose the strategy. Must hold s.mu (the
// tuner and breaker take only their own locks).
func (s *Server) decideAutoLocked(d *device, q *queued, allowGPU bool) {
	q.plan = plan{strat: BreadthFirstCPU}
	sp, ok := autoSpec(q.job.Alg, d.be)
	if !ok {
		return
	}
	sp.HasGPU = sp.HasGPU && allowGPU && !q.forceCPU
	dec, err := s.tuner.Decide(d.id, sp)
	if err != nil {
		return
	}
	q.plan = plan{
		strat:     strategyFromChoice(dec.Strategy),
		crossover: dec.Crossover, alpha: dec.Alpha, y: dec.Y,
		predicted: dec.Predicted, calibrated: dec.Calibrated,
	}
	q.cost = dec.Predicted
}

// sample sums one attempt's intervals, in completion order, into the
// measured half of a calibration observation: busy seconds per unit and the
// link's bytes, seconds and crossings. A native run completes its intervals
// on several goroutines, hence the lock.
type sample struct {
	mu  sync.Mutex
	obs autotune.Observation
}

// add is the sample's interval hook (core.WithIntervals).
func (m *sample) add(iv core.Interval) {
	d := iv.End - iv.Start
	m.mu.Lock()
	switch iv.Unit {
	case core.UnitCPU:
		m.obs.CPUSeconds += d
	case core.UnitGPU:
		m.obs.GPUSeconds += d
	default:
		m.obs.TransferBytes += iv.Bytes
		m.obs.TransferSeconds += d
		m.obs.Transfers++
	}
	m.mu.Unlock()
}

// feedAutotune folds one clean, complete attempt of alg under p, measured by
// smp, into the placed device's calibration. The run has returned, so every
// interval is in.
func (s *Server) feedAutotune(d *device, alg core.Alg, p plan, smp *sample, rep core.Report) {
	sp, ok := autoSpec(alg, d.be)
	if !ok {
		return
	}
	obs := smp.obs
	if p.calibrated {
		// Only a calibrated prediction of the plan that actually ran is a
		// meaningful model-error sample.
		obs.PredictedSeconds = p.predicted
	}
	var err error
	obs.ModelCPUUnits, obs.ModelGPUUnits, err = s.tuner.ForDevice(d.id).UnitsFor(sp, p.strat.String(), p.crossover, p.alpha, p.y)
	if err != nil {
		return
	}
	obs.Alg, obs.N, obs.Seconds = sp.Alg, sp.N, rep.Seconds
	s.tuner.Observe(d.id, obs)
}

// Tuner returns the server's auto-strategy calibrator (never nil), so a
// caller can persist its state (MarshalJSON) at shutdown and restore it
// (autotune.LoadTuner + WithAutoTuner) on the next boot.
func (s *Server) Tuner() *autotune.Tuner { return s.tuner }
