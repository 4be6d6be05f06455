package autotune

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"repro/internal/dcerr"
	"repro/internal/metrics"
)

// Metric names exported when AttachMetrics is configured. The decisions
// counter is per chosen strategy (the registry is flat, so the strategy
// label folds into the name with dashes mapped to underscores).
const (
	// MetricRefits counts calibration refits (observations that updated a
	// rate or the link fit) across all devices.
	MetricRefits = "autotune_refits_total"
	// MetricDecisionsFmt counts auto decisions by chosen strategy; the %s is
	// the strategy name with "-" replaced by "_".
	MetricDecisionsFmt = "autotune_decisions_total_%s"
	// MetricModelRMSE is the decayed root-mean-square relative error of the
	// calibrated model's makespan predictions (worst device).
	MetricModelRMSE = "autotune_model_rmse"
)

// Tuner is the serving layer's auto-strategy brain: one Calibration per
// pool device (calibration is keyed like the breaker state — per device,
// because devices age and heal independently), plus the metric plumbing.
// Safe for concurrent use.
type Tuner struct {
	mu       sync.Mutex
	devs     map[int]*Calibration
	reg      *metrics.Registry
	mRefits  *metrics.Counter
	mRMSE    *metrics.Float
	mChoices map[string]*metrics.Counter
	lastRMSE float64
}

// NewTuner builds an empty tuner. Every device's calibration uses
// DefaultMinObs and DefaultDecay.
func NewTuner() *Tuner {
	return &Tuner{devs: map[int]*Calibration{}}
}

// AttachMetrics directs the tuner's instruments into reg (idempotent; the
// first registry wins, so a server attaching its registry does not clobber
// one the caller already attached).
func (t *Tuner) AttachMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.reg != nil {
		return
	}
	t.reg = reg
	t.mRefits = reg.Counter(MetricRefits)
	t.mRMSE = reg.Float(MetricModelRMSE)
	t.mChoices = map[string]*metrics.Counter{}
}

// ForDevice returns (creating) the device's calibration.
func (t *Tuner) ForDevice(id int) *Calibration {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.devs[id]
	if !ok {
		c = NewCalibration(DefaultMinObs, DefaultDecay)
		t.devs[id] = c
	}
	return c
}

// Observe feeds one finished run on a device into its calibration and
// updates the refit counter and model-error gauge.
func (t *Tuner) Observe(dev int, obs Observation) {
	c := t.ForDevice(dev)
	if !c.Observe(obs) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.mRefits.Inc()
	if t.mRMSE == nil {
		return
	}
	// The Float is add-only; gauge semantics are emulated by pushing the
	// delta from the last exported value (the fusion-ratio pattern). The
	// exported value is the worst RMSE across devices.
	worst := 0.0
	for _, dc := range t.devs {
		if r := dc.RMSE(); r > worst {
			worst = r
		}
	}
	t.mRMSE.Add(worst - t.lastRMSE)
	t.lastRMSE = worst
}

// Decide prices the job against the device's calibration and counts the
// chosen strategy.
func (t *Tuner) Decide(dev int, sp Spec) (Decision, error) {
	dec, err := t.ForDevice(dev).Decide(sp)
	if err != nil {
		return dec, err
	}
	t.mu.Lock()
	if t.mChoices != nil {
		ctr, ok := t.mChoices[dec.Strategy]
		if !ok {
			name := fmt.Sprintf(MetricDecisionsFmt, strings.ReplaceAll(dec.Strategy, "-", "_"))
			ctr = t.reg.Counter(name)
			t.mChoices[dec.Strategy] = ctr
		}
		ctr.Inc()
	}
	t.mu.Unlock()
	return dec, nil
}

// tunerJSON is the tuner's persistence schema: every device's calibration.
type tunerJSON struct {
	Version int                        `json:"version"`
	Devices map[string]json.RawMessage `json:"devices"`
}

// MarshalJSON snapshots every device's calibration.
func (t *Tuner) MarshalJSON() ([]byte, error) {
	t.mu.Lock()
	devs := make(map[int]*Calibration, len(t.devs))
	for id, c := range t.devs {
		devs[id] = c
	}
	t.mu.Unlock()
	out := tunerJSON{Version: 1, Devices: map[string]json.RawMessage{}}
	for id, c := range devs {
		raw, err := c.MarshalJSON()
		if err != nil {
			return nil, err
		}
		out.Devices[fmt.Sprintf("%d", id)] = raw
	}
	return json.Marshal(out)
}

// LoadTuner restores a tuner persisted with MarshalJSON, so a warm restart
// skips every device's cold start.
func LoadTuner(data []byte) (*Tuner, error) {
	var in tunerJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("autotune: load tuner: %w (%w)", dcerr.ErrBadParam, err)
	}
	if in.Version != 1 {
		return nil, fmt.Errorf("autotune: tuner version %d: %w", in.Version, dcerr.ErrBadParam)
	}
	t := NewTuner()
	for key, raw := range in.Devices {
		var id int
		if _, err := fmt.Sscanf(key, "%d", &id); err != nil {
			return nil, fmt.Errorf("autotune: tuner device key %q: %w", key, dcerr.ErrBadParam)
		}
		c, err := Load(raw)
		if err != nil {
			return nil, err
		}
		t.devs[id] = c
	}
	return t, nil
}
