package hpu

import (
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dcerr"
)

func TestBuiltinPlatformsValid(t *testing.T) {
	for _, pl := range Platforms() {
		if err := pl.Validate(); err != nil {
			t.Errorf("%s: %v", pl.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"HPU1", "HPU2"} {
		pl, ok := ByName(name)
		if !ok || pl.Name != name {
			t.Errorf("ByName(%q) = %v, %v", name, pl.Name, ok)
		}
	}
	if _, ok := ByName("HPU3"); ok {
		t.Error("ByName accepted unknown platform")
	}
}

func TestPaperParameters(t *testing.T) {
	// Table 2 anchors are encoded directly in the platform definitions.
	p1, p2 := HPU1(), HPU2()
	if p1.CPU.Cores != 4 || p1.GPU.SatThreads != 4096 || math.Abs(1/p1.GPU.Gamma-160) > 1e-9 {
		t.Errorf("HPU1 parameters off: p=%d g=%d 1/γ=%g",
			p1.CPU.Cores, p1.GPU.SatThreads, 1/p1.GPU.Gamma)
	}
	if p2.CPU.Cores != 4 || p2.GPU.SatThreads != 1200 || math.Abs(1/p2.GPU.Gamma-65) > 1e-9 {
		t.Errorf("HPU2 parameters off: p=%d g=%d 1/γ=%g",
			p2.CPU.Cores, p2.GPU.SatThreads, 1/p2.GPU.Gamma)
	}
	// The model's premise γ·g > p must hold on both platforms (§3.2).
	for _, pl := range Platforms() {
		if pl.GPU.Gamma*float64(pl.GPU.SatThreads) <= float64(pl.CPU.Cores) {
			t.Errorf("%s: γ·g <= p, the HPU premise fails", pl.Name)
		}
	}
}

func TestTransferCost(t *testing.T) {
	sim := MustSim(HPU1())
	n := int64(64 << 20)
	want := HPU1().Link.LatencySec + float64(n)/3e9
	if got := sim.TransferSeconds(n); math.Abs(got-want) > 1e-12 {
		t.Errorf("TransferSeconds = %g, want %g", got, want)
	}
	done := false
	sim.TransferToGPU(n, func() { done = true })
	sim.Wait()
	if !done {
		t.Fatal("transfer done not called")
	}
	if got := sim.Now(); math.Abs(got-want) > 1e-12 {
		t.Errorf("transfer advanced clock to %g, want %g", got, want)
	}
	if sim.TransferredBytes() != n {
		t.Errorf("TransferredBytes = %d, want %d", sim.TransferredBytes(), n)
	}
}

func TestTransfersSerializeOnLink(t *testing.T) {
	sim := MustSim(HPU1())
	n := int64(3 << 30) // 1s each at 3 GB/s
	sim.TransferToGPU(n, nil)
	sim.TransferToCPU(n, nil)
	sim.Wait()
	want := 2 * sim.TransferSeconds(n)
	if got := sim.Now(); math.Abs(got-want) > 1e-9 {
		t.Errorf("two transfers took %g, want %g (serialized)", got, want)
	}
}

func TestBackendInterface(t *testing.T) {
	sim := MustSim(HPU2())
	var be core.Backend = sim
	if be.CPU() == nil || be.GPU() == nil {
		t.Fatal("nil executors")
	}
	if be.CPU().Parallelism() != 4 {
		t.Errorf("CPU parallelism = %d", be.CPU().Parallelism())
	}
	if be.GPU().Parallelism() != 1200 {
		t.Errorf("GPU parallelism = %d", be.GPU().Parallelism())
	}
	if math.Abs(be.GPUGamma()-1.0/65) > 1e-12 {
		t.Errorf("GPUGamma = %g", be.GPUGamma())
	}
}

// TestEditedPlatformReachesSim pins how a custom platform is built: edit
// a paper platform's value, then NewSim it. The edited knobs reach the
// Sim and the untouched ones keep the baseline's values.
func TestEditedPlatformReachesSim(t *testing.T) {
	p := HPU2()
	p.Name = "custom"
	p.CPU.Cores = 8
	p.GPU.SatThreads, p.GPU.Gamma = 2048, 1.0/100
	p.Link.LatencySec, p.Link.SecPerByte = 1e-6, 1.0/1e9
	s, err := NewSim(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.Platform() != p {
		t.Errorf("Platform() = %+v, want %+v", s.Platform(), p)
	}
	if got := s.Platform().GPU.HideFactor; got != HPU2().GPU.HideFactor {
		t.Errorf("HideFactor = %g, want HPU2 baseline %g", got, HPU2().GPU.HideFactor)
	}
	if got, want := s.TransferSeconds(1000), 1e-6+1000.0/1e9; math.Abs(got-want) > 1e-15 {
		t.Errorf("TransferSeconds(1000) = %g, want %g", got, want)
	}
}

func TestNewSimRejectsBadPlatform(t *testing.T) {
	bad := HPU1()
	bad.CPU.Cores = 0
	if _, err := NewSim(bad); err == nil {
		t.Error("NewSim accepted invalid CPU")
	}
	bad2 := HPU1()
	bad2.Link.LatencySec = -1
	if _, err := NewSim(bad2); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("negative λ: err = %v, want ErrBadParam", err)
	}
	bad3 := HPU1()
	bad3.GPU.SatThreads = 0
	if _, err := NewSim(bad3); !errors.Is(err, dcerr.ErrBadParam) {
		t.Errorf("invalid g: err = %v, want ErrBadParam", err)
	}
	assertPanics(t, func() { MustSim(bad) })
}

func TestNegativeTransferPanics(t *testing.T) {
	sim := MustSim(HPU1())
	assertPanics(t, func() { sim.TransferToGPU(-1, nil) })
}

func assertPanics(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
