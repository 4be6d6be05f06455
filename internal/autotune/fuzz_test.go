package autotune_test

// Fuzz harness for the persisted-calibration decoders (Load, LoadTuner): the
// file is operator-supplied state read at boot, and every number in it feeds
// an argmin. The contract: malformed or out-of-range input returns an error
// classified dcerr.ErrBadParam — never a panic — and anything that loads
// persists again, reloads, and prices a job to a non-negative cost.
//
// `go test -run '^Fuzz' ./internal/autotune/` replays the seeds (wired into
// `make fuzz-smoke`); `go test -fuzz FuzzLoad ./internal/autotune/` explores.

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/autotune"
	"repro/internal/dcerr"
)

// calibrationFile renders a version-1 calibration with one entry.
func calibrationFile(entry, link, errSums string) string {
	return fmt.Sprintf(`{"version":1,"min_obs":2,"decay":0.5,"entries":[{"key":{"alg":"mergesort","size_class":12},%s}],"link":{%s},%s}`,
		entry, link, errSums)
}

const (
	goodEntry = `"tcpu":1e-7,"tgpu":2e-9,"cpu_obs":5,"gpu_obs":4`
	goodLink  = `"sw":2,"sx":4096,"sy":2e-4,"sxx":1e7,"sxy":0.5,"lambda":6e-5,"delta":3e-10,"obs":9`
	goodErr   = `"err_sq":0.02,"err_w":1.9`
)

// hostileCalibrations are well-formed JSON whose numbers no fit could have
// produced; each must be refused.
var hostileCalibrations = map[string]string{
	"negative lambda":  calibrationFile(goodEntry, `"sw":2,"lambda":-1,"delta":3e-10,"obs":9`, goodErr),
	"negative delta":   calibrationFile(goodEntry, `"sw":2,"lambda":6e-5,"delta":-3e-10,"obs":9`, goodErr),
	"negative tcpu":    calibrationFile(`"tcpu":-1e-7,"tgpu":2e-9,"cpu_obs":5,"gpu_obs":4`, goodLink, goodErr),
	"negative tgpu":    calibrationFile(`"tcpu":1e-7,"tgpu":-2e-9,"cpu_obs":5,"gpu_obs":4`, goodLink, goodErr),
	"negative cpu_obs": calibrationFile(`"tcpu":1e-7,"tgpu":2e-9,"cpu_obs":-5,"gpu_obs":4`, goodLink, goodErr),
	"negative gpu_obs": calibrationFile(`"tcpu":1e-7,"tgpu":2e-9,"cpu_obs":5,"gpu_obs":-4`, goodLink, goodErr),
	"negative link obs": calibrationFile(goodEntry,
		`"sw":2,"sx":4096,"sy":2e-4,"sxx":1e7,"sxy":0.5,"lambda":6e-5,"delta":3e-10,"obs":-9`, goodErr),
	"negative link sum": calibrationFile(goodEntry,
		`"sw":2,"sx":-4096,"sy":2e-4,"sxx":1e7,"sxy":0.5,"lambda":6e-5,"delta":3e-10,"obs":9`, goodErr),
	"negative err_w":   calibrationFile(goodEntry, goodLink, `"err_sq":0.02,"err_w":-1`),
	"negative err_sq":  calibrationFile(goodEntry, goodLink, `"err_sq":-0.02,"err_w":1`),
	"overflowing tcpu": calibrationFile(`"tcpu":1e999,"tgpu":2e-9,"cpu_obs":5,"gpu_obs":4`, goodLink, goodErr),
	"lambda as string": calibrationFile(goodEntry, `"lambda":"NaN","delta":3e-10`, goodErr),
	"unknown version":  `{"version":9}`,
	"truncated":        `{"version":1,"entries":[{"key":`,
	"not an object":    `[]`,
	"empty":            ``,
}

// liveCalibration is a round-tripped MarshalJSON output.
func liveCalibration(t testing.TB) []byte {
	c := warm(testSpec(1<<12, true))
	c.Observe(autotune.Observation{Alg: "scan", N: 1 << 10, ModelCPUUnits: 10, CPUSeconds: 1e-5,
		PredictedSeconds: 1.1e-5, Seconds: 1e-5})
	raw, err := c.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLoadRejectsHostileNumbers runs the hostile rows as a plain table, with
// the accepted form of the same file beside them.
func TestLoadRejectsHostileNumbers(t *testing.T) {
	if _, err := autotune.Load([]byte(calibrationFile(goodEntry, goodLink, goodErr))); err != nil {
		t.Fatalf("well-formed calibration refused: %v", err)
	}
	for name, file := range hostileCalibrations {
		if _, err := autotune.Load([]byte(file)); !errors.Is(err, dcerr.ErrBadParam) {
			t.Errorf("%s: Load error %v, want ErrBadParam", name, err)
		}
		tuner := `{"version":1,"devices":{"0":` + file + `}}`
		if _, err := autotune.LoadTuner([]byte(tuner)); !errors.Is(err, dcerr.ErrBadParam) {
			t.Errorf("%s: LoadTuner error %v, want ErrBadParam", name, err)
		}
	}
}

// checkLoaded is the success-side property: the state persists, reloads and
// prices a job without producing a negative or NaN cost.
func checkLoaded(t *testing.T, decide func(autotune.Spec) (autotune.Decision, error), marshal func() ([]byte, error), reload func([]byte) error) {
	t.Helper()
	raw, err := marshal()
	if err != nil {
		t.Fatalf("loaded state does not persist: %v", err)
	}
	if err := reload(raw); err != nil {
		t.Fatalf("persisted state does not reload: %v", err)
	}
	dec, err := decide(testSpec(1<<12, true))
	if err != nil {
		t.Fatalf("loaded state cannot decide: %v", err)
	}
	if !(dec.Predicted >= 0) {
		t.Fatalf("loaded state priced %s at %g", dec.Strategy, dec.Predicted)
	}
}

func FuzzLoad(f *testing.F) {
	f.Add(liveCalibration(f))
	f.Add([]byte(calibrationFile(goodEntry, goodLink, goodErr)))
	for _, file := range hostileCalibrations {
		f.Add([]byte(file))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := autotune.Load(data)
		if err != nil {
			if !errors.Is(err, dcerr.ErrBadParam) {
				t.Fatalf("malformed calibration error %v does not classify as ErrBadParam", err)
			}
			return
		}
		checkLoaded(t, c.Decide, c.MarshalJSON, func(raw []byte) error {
			_, err := autotune.Load(raw)
			return err
		})
	})
}

func FuzzLoadTuner(f *testing.F) {
	live := string(liveCalibration(f))
	f.Add([]byte(`{"version":1,"devices":{"0":` + live + `,"3":` + live + `}}`))
	f.Add([]byte(`{"version":1,"devices":{}}`))
	f.Add([]byte(`{"version":1,"devices":{"gpu0":` + live + `}}`))
	f.Add([]byte(`{"version":1,"devices":{"0":null}}`))
	f.Add([]byte(`{"version":2,"devices":{}}`))
	for _, file := range hostileCalibrations {
		f.Add([]byte(`{"version":1,"devices":{"0":` + file + `}}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tn, err := autotune.LoadTuner(data)
		if err != nil {
			if !errors.Is(err, dcerr.ErrBadParam) {
				t.Fatalf("malformed tuner error %v does not classify as ErrBadParam", err)
			}
			return
		}
		checkLoaded(t, func(sp autotune.Spec) (autotune.Decision, error) { return tn.Decide(0, sp) },
			tn.MarshalJSON, func(raw []byte) error {
				_, err := autotune.LoadTuner(raw)
				return err
			})
	})
}
