// Package autotune closes the loop from observability back into scheduling:
// an online calibrator that ingests what the executors already measure — the
// batch and transfer intervals of every run (core.WithIntervals), summed into
// one Observation per run by the serving layer — continuously refits the
// platform model's per-algorithm cost parameters, and at dispatch time
// prices every executable strategy for a job's N and picks the argmin.
//
// The paper's §5 model predicts makespans in abstract cost units under the
// (p, g, γ) machine triple; real platforms deviate from it by per-unit
// throughput factors (how many model units one second of CPU or GPU time
// buys) and by the link cost the model deliberately ignores (§3.2). The
// calibrator learns exactly those residuals:
//
//   - tcpu, tgpu — seconds per model unit, per (algorithm, size-class),
//     EWMA-smoothed over recent jobs;
//   - λ, δ — the per-transfer latency and per-byte time of the host↔device
//     link, fitted by decayed least squares over observed transfers.
//
// A calibrated decision prices bf-cpu, gpu-only, every basic-hybrid
// crossover x and an (α, y) grid of advanced-hybrid divisions, so the
// serving layer's Strategy Auto selects the division the paper's §6 sweeps
// found by hand. Until a size class has MinObs observations the rates fall
// back to the uncalibrated analytic model (tcpu = tgpu = 1, no link cost),
// which reduces the decision to the static §5 heuristic.
//
// The §5 model is evaluated once per job shape into a price table of model
// units; a decision only re-rates that table with the current fit, because a
// refit precedes nearly every placement and the units never change.
//
// Calibration state serializes with MarshalJSON and restores with Load, so
// a warm restart skips the cold start. DESIGN.md §16.
package autotune

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/dcerr"
	"repro/internal/model"
)

// Strategy names a decision can choose: the executors' report names.
const (
	ChoiceCPU      = core.BreadthFirstCPUStrategy
	ChoiceGPUOnly  = core.GPUOnlyStrategy
	ChoiceBasic    = core.BasicHybridStrategy
	ChoiceAdvanced = core.AdvancedHybridStrategy
)

// Key identifies one calibration bucket: an algorithm at a size class
// (log2 of N), the granularity at which per-unit rates are tracked.
type Key struct {
	Alg       string `json:"alg"`
	SizeClass int    `json:"size_class"`
}

// SizeClass buckets an input size: ⌊log2(n)⌋, 0 for n < 2.
func SizeClass(n int) int {
	c := 0
	for n > 1 {
		n >>= 1
		c++
	}
	return c
}

// entry is one bucket's fitted per-unit rates.
type entry struct {
	// TCPU and TGPU are EWMA seconds per model unit on each side.
	TCPU float64 `json:"tcpu"`
	TGPU float64 `json:"tgpu"`
	// CPUObs and GPUObs count observations that updated each rate.
	CPUObs int `json:"cpu_obs"`
	GPUObs int `json:"gpu_obs"`
}

// linkFit is the decayed least-squares state for the transfer model
// seconds = λ + δ·bytes, over per-transfer averages.
type linkFit struct {
	Sw, Sx, Sy, Sxx, Sxy float64
	Lambda, Delta        float64
	Obs                  int
}

// observe folds one (bytes, seconds) per-transfer sample into the fit.
func (l *linkFit) observe(decay, bytes, secs float64) {
	l.Sw = decay*l.Sw + 1
	l.Sx = decay*l.Sx + bytes
	l.Sy = decay*l.Sy + secs
	l.Sxx = decay*l.Sxx + bytes*bytes
	l.Sxy = decay*l.Sxy + bytes*secs
	l.Obs++
	den := l.Sw*l.Sxx - l.Sx*l.Sx
	if den > 1e-12*l.Sxx {
		l.Delta = (l.Sw*l.Sxy - l.Sx*l.Sy) / den
	}
	// Degenerate spread (all transfers the same size): keep the existing
	// slope and fit only the intercept through the decayed means.
	if l.Sw > 0 {
		l.Lambda = (l.Sy - l.Delta*l.Sx) / l.Sw
	}
	if l.Delta < 0 {
		l.Delta = 0
		if l.Sw > 0 {
			l.Lambda = l.Sy / l.Sw
		}
	}
	if l.Lambda < 0 {
		l.Lambda = 0
	}
}

// Observation is one finished run's measured profile, fed to Observe. The
// model-unit fields are computed by UnitsFor from the strategy the run
// actually executed.
type Observation struct {
	// Alg and N identify the calibration bucket.
	Alg string
	N   int
	// ModelCPUUnits and ModelGPUUnits are the run's predicted unit times on
	// each side under the machine triple (0 when the side was unused).
	ModelCPUUnits float64
	ModelGPUUnits float64
	// CPUSeconds and GPUSeconds are the measured busy times on each side.
	CPUSeconds float64
	GPUSeconds float64
	// TransferBytes, TransferSeconds and Transfers aggregate the run's
	// host↔device link activity.
	TransferBytes   int64
	TransferSeconds float64
	Transfers       int
	// PredictedSeconds is the decision's calibrated makespan prediction for
	// this run (0 when the run was not auto-placed), used for the model-error
	// gauge; Seconds is the measured makespan.
	PredictedSeconds float64
	Seconds          float64
}

// Decision is a priced strategy choice for one job.
type Decision struct {
	// Strategy is the argmin choice (one of the Choice names); Crossover,
	// Alpha and Y are its parameters where applicable.
	Strategy  string
	Crossover int
	Alpha     float64
	Y         int
	// Costs maps every priced strategy to its calibrated predicted seconds
	// (model units when uncalibrated); Predicted is Costs[Strategy].
	Costs     map[string]float64
	Predicted float64
	// Calibrated reports whether fitted rates (vs the cold-start analytic
	// model) produced this decision.
	Calibrated bool
}

// Spec describes one job for pricing: the algorithm's recurrence and cost
// hooks plus the device's machine triple.
type Spec struct {
	// Alg is the calibration bucket name; N the input size.
	Alg string
	N   int
	// A, B, Levels, F, Leaf are the model inputs (Alg.Arity, Alg.Shrink,
	// Alg.Levels, ModelF, ModelLeaf).
	A, B, Levels int
	F            func(float64) float64
	Leaf         float64
	// P, G, Gamma are the device's machine triple.
	P, G  int
	Gamma float64
	// Bytes is the whole-instance transfer size (GPUAlg.GPUBytes of the full
	// input); HasGPU gates the device-path strategies.
	Bytes  int64
	HasGPU bool
}

// shape is everything a price table is a function of: the recurrence, the
// cost hooks and the machine triple. Alg stands in for F (an algorithm exports
// one cost function). N and Bytes are absent on purpose: the table holds
// model units, N only selects the rate bucket, and the link term is applied
// to Bytes when the table is re-rated.
type shape struct {
	alg          string
	a, b, levels int
	leaf         float64
	p, g         int
	gamma        float64
	hasGPU       bool
}

func (sp Spec) shape() shape {
	sh := shape{alg: sp.Alg, a: sp.A, b: sp.B, levels: sp.Levels, leaf: sp.Leaf,
		p: sp.P, g: sp.G, gamma: sp.Gamma, hasGPU: sp.HasGPU}
	if !sp.HasGPU {
		sh.g, sh.gamma = 1, 0.5 // unused: CPU-only pricing never calls gpuLevel
	}
	return sh
}

// priceTable is one shape's candidates priced in model units, in the order
// Decide considers them: bf-cpu, gpu-only, every basic crossover, the (α, y)
// grid. It is immutable once built, so a re-rate reads it without the lock.
type priceTable struct {
	// num is the shape's model, kept for UnitsFor (a fixed-strategy run's α
	// need not lie on the grid).
	num          model.Numeric
	hasGPU       bool
	cpu, gpuOnly float64
	basic        []basicPrice
	advanced     []advancedPrice
}

type basicPrice struct {
	crossover int
	cpu, gpu  float64
}

type advancedPrice struct {
	alpha          float64
	y              int
	cpu, gpu, tail float64
}

// alphaSteps is the advanced-hybrid grid resolution: α ∈ {1/20, …, 19/20}.
const alphaSteps = 20

// newPriceTable evaluates the §5 model once for every candidate.
func newPriceTable(sp Spec) (*priceTable, error) {
	sh := sp.shape()
	num, err := model.NewNumeric(sp.A, sp.B, sp.Levels, sp.F, sp.Leaf,
		model.Machine{P: sh.p, G: sh.g, Gamma: sh.gamma})
	if err != nil {
		return nil, err
	}
	t := &priceTable{num: num, hasGPU: sp.HasGPU, cpu: num.PredictBreadthFirstCPU()}
	if !sp.HasGPU {
		return t, nil
	}
	t.gpuOnly = num.PredictGPUOnly()
	// Basic: every crossover x — the headline the paper computes once,
	// offline, from the static machine triple.
	t.basic = make([]basicPrice, 0, sp.Levels+1)
	for x := 0; x <= sp.Levels; x++ {
		cpu, gpu, perr := num.PredictBasicParts(x)
		if perr != nil {
			continue
		}
		t.basic = append(t.basic, basicPrice{crossover: x, cpu: cpu, gpu: gpu})
	}
	// Advanced: an (α, y) grid with the split at its default, kept per phase
	// so the max() overlap uses the fitted rates.
	t.advanced = make([]advancedPrice, 0, (sp.Levels+1)*(alphaSteps-1))
	for y := 0; y <= sp.Levels; y++ {
		for i := 1; i < alphaSteps; i++ {
			a := float64(i) / float64(alphaSteps)
			pr, perr := num.PredictAdvanced(a, y, num.DefaultSplit(a, y))
			if perr != nil {
				continue
			}
			t.advanced = append(t.advanced, advancedPrice{alpha: a, y: y,
				cpu: pr.CPUPhase, gpu: pr.GPUPhase, tail: pr.Tail})
		}
	}
	return t, nil
}

// The strategies in pricing order, and their names by that index.
const (
	cpuChoice = iota
	gpuOnlyChoice
	basicChoice
	advancedChoice
)

var choices = [...]string{ChoiceCPU, ChoiceGPUOnly, ChoiceBasic, ChoiceAdvanced}

// rate applies fitted rates and the link fit to the table and returns the
// argmin: the first candidate, in table order, with the strictly lowest cost.
func (t *priceTable) rate(bytes int64, tcpu, tgpu, lambda, delta float64, calibrated bool) Decision {
	dec := Decision{Calibrated: calibrated}
	best := math.Inf(1)
	var low [len(choices)]float64
	var priced [len(choices)]bool
	consider := func(choice int, cost float64, crossover int, alpha float64, y int) {
		if !priced[choice] || cost < low[choice] {
			low[choice], priced[choice] = cost, true
		}
		if cost < best {
			best = cost
			dec.Strategy, dec.Predicted = choices[choice], cost
			dec.Crossover, dec.Alpha, dec.Y = crossover, alpha, y
		}
	}

	consider(cpuChoice, tcpu*t.cpu, 0, 0, 0)
	if t.hasGPU {
		link := func(b float64) float64 {
			if b <= 0 {
				return 0
			}
			return 2 * (lambda + delta*b)
		}
		whole := link(float64(bytes))
		consider(gpuOnlyChoice, tgpu*t.gpuOnly+whole, 0, 0, 0)
		for _, b := range t.basic {
			consider(basicChoice, tcpu*b.cpu+tgpu*b.gpu+whole, b.crossover, 0, 0)
		}
		for _, a := range t.advanced {
			gb := (1 - a.alpha) * float64(bytes)
			cost := math.Max(tcpu*a.cpu, tgpu*a.gpu+link(gb)) + tcpu*a.tail
			consider(advancedChoice, cost, 0, a.alpha, a.y)
		}
	}

	dec.Costs = make(map[string]float64, len(choices))
	for i, ok := range priced {
		if ok {
			dec.Costs[choices[i]] = low[i]
		}
	}
	return dec
}

// Calibration is one device's fitted state: per-(algorithm, size-class)
// unit rates plus the device's link fit. Safe for concurrent use.
type Calibration struct {
	mu      sync.Mutex
	minObs  int
	decay   float64
	entries map[Key]*entry
	link    linkFit
	// errSq is the decayed mean squared relative prediction error; errW its
	// decayed weight. RMSE = sqrt(errSq/errW).
	errSq, errW float64
	// tables holds one price table per job shape seen on this device.
	tables map[shape]*priceTable
}

// maxTables bounds the retained price tables; past it the set is dropped and
// rebuilt on demand (a server sees a handful of shapes per device, but an
// any-size algorithm under hostile leaf costs could mint them without end).
const maxTables = 128

// Defaults for NewCalibration.
const (
	// DefaultMinObs is how many observations a (algorithm, size-class)
	// bucket needs before its fitted rates replace the analytic cold-start
	// model.
	DefaultMinObs = 3
	// DefaultDecay is the EWMA retention per observation: each new sample
	// carries weight 1−DefaultDecay.
	DefaultDecay = 0.7
)

// NewCalibration builds an empty calibration. minObs <= 0 and decay outside
// (0,1) take the defaults.
func NewCalibration(minObs int, decay float64) *Calibration {
	if minObs <= 0 {
		minObs = DefaultMinObs
	}
	if decay <= 0 || decay >= 1 {
		decay = DefaultDecay
	}
	return &Calibration{minObs: minObs, decay: decay,
		entries: map[Key]*entry{}, tables: map[shape]*priceTable{}}
}

// Observe folds one finished run into the fitted state and reports whether
// it refit anything (a run with no usable samples is ignored).
func (c *Calibration) Observe(obs Observation) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	refit := false
	k := Key{Alg: obs.Alg, SizeClass: SizeClass(obs.N)}
	ewma := func(old, sample float64, n int) float64 {
		if n == 0 {
			return sample
		}
		return c.decay*old + (1-c.decay)*sample
	}
	if obs.ModelCPUUnits > 0 && obs.CPUSeconds > 0 {
		e := c.entry(k)
		e.TCPU = ewma(e.TCPU, obs.CPUSeconds/obs.ModelCPUUnits, e.CPUObs)
		e.CPUObs++
		refit = true
	}
	if obs.ModelGPUUnits > 0 && obs.GPUSeconds > 0 {
		e := c.entry(k)
		e.TGPU = ewma(e.TGPU, obs.GPUSeconds/obs.ModelGPUUnits, e.GPUObs)
		e.GPUObs++
		refit = true
	}
	if obs.Transfers > 0 && obs.TransferSeconds > 0 {
		c.link.observe(c.decay, float64(obs.TransferBytes)/float64(obs.Transfers),
			obs.TransferSeconds/float64(obs.Transfers))
		refit = true
	}
	if obs.PredictedSeconds > 0 && obs.Seconds > 0 {
		rel := (obs.PredictedSeconds - obs.Seconds) / obs.Seconds
		c.errSq = c.decay*c.errSq + rel*rel
		c.errW = c.decay*c.errW + 1
	}
	return refit
}

// entry returns (creating) a bucket. Must hold c.mu.
func (c *Calibration) entry(k Key) *entry {
	e, ok := c.entries[k]
	if !ok {
		e = &entry{}
		c.entries[k] = e
	}
	return e
}

// RMSE is the decayed root-mean-square relative prediction error of
// auto-placed runs, 0 before any prediction has settled.
func (c *Calibration) RMSE() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.errW == 0 {
		return 0
	}
	return math.Sqrt(c.errSq / c.errW)
}

// rates returns the bucket's fitted (tcpu, tgpu) and whether both sides the
// job can use are past the cold-start threshold. Must hold c.mu.
func (c *Calibration) rates(k Key, needGPU bool) (tcpu, tgpu float64, calibrated bool) {
	e, ok := c.entries[k]
	if !ok {
		return 1, 1, false
	}
	tcpu, tgpu = 1, 1
	calibrated = e.CPUObs >= c.minObs
	if e.CPUObs > 0 && e.TCPU > 0 {
		tcpu = e.TCPU
	}
	if needGPU {
		if e.GPUObs < c.minObs {
			calibrated = false
		}
		if e.GPUObs > 0 && e.TGPU > 0 {
			tgpu = e.TGPU
		}
	}
	return tcpu, tgpu, calibrated
}

// table returns (building on first use) the price table for the spec's shape.
func (c *Calibration) table(sp Spec) (*priceTable, error) {
	sh := sp.shape()
	c.mu.Lock()
	t := c.tables[sh]
	c.mu.Unlock()
	if t != nil {
		return t, nil
	}
	// Built outside the lock: sp.F is caller code. Two racing builders
	// produce equal tables and the second store wins.
	t, err := newPriceTable(sp)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if len(c.tables) >= maxTables {
		clear(c.tables)
	}
	c.tables[sh] = t
	c.mu.Unlock()
	return t, nil
}

// Decide prices every executable strategy for the job and returns the
// argmin. The §5 model is evaluated once per shape (the price table); each
// call only re-rates that table with the bucket's current tcpu, tgpu, λ, δ,
// so a decision after a refit costs a few hundred multiply-adds.
func (c *Calibration) Decide(sp Spec) (Decision, error) {
	if sp.F == nil {
		return Decision{}, fmt.Errorf("autotune: nil cost function for %s: %w", sp.Alg, dcerr.ErrBadParam)
	}
	t, err := c.table(sp)
	if err != nil {
		return Decision{}, err
	}
	c.mu.Lock()
	tcpu, tgpu, calibrated := c.rates(Key{Alg: sp.Alg, SizeClass: SizeClass(sp.N)}, sp.HasGPU)
	lambda, delta := c.link.Lambda, c.link.Delta
	c.mu.Unlock()
	if !calibrated {
		// Cold start: the pure analytic model (§5), which ignores the link.
		tcpu, tgpu, lambda, delta = 1, 1, 0, 0
	}
	return t.rate(sp.Bytes, tcpu, tgpu, lambda, delta, calibrated), nil
}

// UnitsFor computes the model unit times a run of the given strategy spends
// on each side — the denominators for the observed-rate fit — from the
// shape's retained model. The executed strategy's parameters (crossover for
// basic, α and y for advanced) must be the ones the run actually used.
func (c *Calibration) UnitsFor(sp Spec, strategy string, crossover int, alpha float64, y int) (cpuUnits, gpuUnits float64, err error) {
	t, err := c.table(sp)
	if err != nil {
		return 0, 0, err
	}
	num := t.num
	switch strategy {
	case "seq-1cpu":
		// The sequential run is one core's work: one blocked walk on an
		// autonomous backend, every level folded onto one core on the
		// simulator. The unscaled sequential time is its unit count.
		return num.SequentialTime(), 0, nil
	case ChoiceCPU:
		return num.PredictBreadthFirstCPU(), 0, nil
	case ChoiceGPUOnly:
		return 0, num.PredictGPUOnly(), nil
	case ChoiceBasic:
		cpu, gpu, perr := num.PredictBasicParts(crossover)
		return cpu, gpu, perr
	case ChoiceAdvanced:
		s := num.DefaultSplit(alpha, y)
		pr, perr := num.PredictAdvanced(alpha, y, s)
		if perr != nil {
			return 0, 0, perr
		}
		return pr.CPUPhase + pr.Tail, pr.GPUPhase, nil
	}
	return 0, 0, fmt.Errorf("autotune: unknown strategy %q: %w", strategy, dcerr.ErrBadParam)
}

// calibrationJSON is the persistence schema (DESIGN.md §16).
type calibrationJSON struct {
	Version int         `json:"version"`
	MinObs  int         `json:"min_obs"`
	Decay   float64     `json:"decay"`
	Entries []entryJSON `json:"entries"`
	Link    linkFitJSON `json:"link"`
	ErrSq   float64     `json:"err_sq"`
	ErrW    float64     `json:"err_w"`
}

type entryJSON struct {
	Key Key `json:"key"`
	entry
}

type linkFitJSON struct {
	Sw     float64 `json:"sw"`
	Sx     float64 `json:"sx"`
	Sy     float64 `json:"sy"`
	Sxx    float64 `json:"sxx"`
	Sxy    float64 `json:"sxy"`
	Lambda float64 `json:"lambda"`
	Delta  float64 `json:"delta"`
	Obs    int     `json:"obs"`
}

// MarshalJSON snapshots the fitted state, so a server can persist its warm
// calibration across restarts (Load restores it).
func (c *Calibration) MarshalJSON() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := calibrationJSON{Version: 1, MinObs: c.minObs, Decay: c.decay,
		Link: linkFitJSON{Sw: c.link.Sw, Sx: c.link.Sx, Sy: c.link.Sy,
			Sxx: c.link.Sxx, Sxy: c.link.Sxy,
			Lambda: c.link.Lambda, Delta: c.link.Delta, Obs: c.link.Obs},
		ErrSq: c.errSq, ErrW: c.errW}
	for k, e := range c.entries {
		out.Entries = append(out.Entries, entryJSON{Key: k, entry: *e})
	}
	return json.Marshal(out)
}

// Load restores a calibration persisted with MarshalJSON.
func Load(data []byte) (*Calibration, error) {
	var in calibrationJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("autotune: load calibration: %w (%w)", dcerr.ErrBadParam, err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("autotune: calibration version %d: %w", in.Version, dcerr.ErrBadParam)
	}
	// Every persisted quantity is a count, a rate or a decayed sum of
	// non-negative samples; anything else would bias every argmin.
	sane := func(obs int, xs ...float64) bool {
		for _, x := range xs {
			if !(x >= 0) || math.IsInf(x, 0) {
				return false
			}
		}
		return obs >= 0
	}
	l := in.Link
	if !sane(l.Obs, l.Sw, l.Sx, l.Sy, l.Sxx, l.Sxy, l.Lambda, l.Delta, in.ErrSq, in.ErrW) {
		return nil, fmt.Errorf("autotune: calibration link fit or error sums negative or non-finite: %w", dcerr.ErrBadParam)
	}
	c := NewCalibration(in.MinObs, in.Decay)
	for _, e := range in.Entries {
		ent := e.entry
		if !sane(ent.CPUObs, ent.TCPU) || !sane(ent.GPUObs, ent.TGPU) {
			return nil, fmt.Errorf("autotune: calibration entry %s/%d negative or non-finite: %w",
				e.Key.Alg, e.Key.SizeClass, dcerr.ErrBadParam)
		}
		c.entries[e.Key] = &ent
	}
	c.link = linkFit{Sw: in.Link.Sw, Sx: in.Link.Sx, Sy: in.Link.Sy,
		Sxx: in.Link.Sxx, Sxy: in.Link.Sxy,
		Lambda: in.Link.Lambda, Delta: in.Link.Delta, Obs: in.Link.Obs}
	c.errSq, c.errW = in.ErrSq, in.ErrW
	return c, nil
}
