package hpu

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/simgpu"
)

func TestMultiSimBasics(t *testing.T) {
	m, err := NewMultiSim(HPU1(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if m.Platform().Name != "HPU1" {
		t.Errorf("Platform = %s", m.Platform().Name)
	}
	gpus := m.GPUs()
	if len(gpus) != 3 {
		t.Fatalf("GPUs = %d, want 3", len(gpus))
	}
	if m.GPU() != gpus[0] {
		t.Error("GPU() is not the first device")
	}
	if m.CPU().Parallelism() != 4 {
		t.Errorf("CPU parallelism = %d", m.CPU().Parallelism())
	}
	if math.Abs(m.GPUGamma()-1.0/160) > 1e-12 {
		t.Errorf("GPUGamma = %g", m.GPUGamma())
	}
}

func TestMultiSimDevicesIndependent(t *testing.T) {
	// Two devices execute launches concurrently; the same two launches on
	// one device serialize.
	run := func(devices int) float64 {
		m, err := NewMultiSim(HPU1(), devices)
		if err != nil {
			t.Fatal(err)
		}
		b := core.Batch{Tasks: 1 << 14, Cost: core.Cost{Ops: 1e4, Coalesced: true}}
		for d := 0; d < 2; d++ {
			dev := m.GPUs()[d%devices]
			dev.Submit(b, nil)
		}
		m.Wait()
		return m.Now()
	}
	one, two := run(1), run(2)
	if two >= one {
		t.Errorf("two devices (%g) not faster than one (%g) for independent launches", two, one)
	}
}

func TestMultiSimSharedLinkSerializes(t *testing.T) {
	m, err := NewMultiSim(HPU1(), 2)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(3 << 30) // 1s each at 3 GB/s
	m.TransferToGPU(n, nil)
	m.TransferToCPU(n, nil)
	m.Wait()
	single := HPU1().Link.LatencySec + float64(n)/3e9
	if got := m.Now(); math.Abs(got-2*single) > 1e-9 {
		t.Errorf("two transfers on the shared link took %g, want %g", got, 2*single)
	}
}

func TestMultiSimValidation(t *testing.T) {
	if _, err := NewMultiSim(HPU1(), 0); err == nil {
		t.Error("accepted 0 devices")
	}
	bad := HPU1()
	bad.GPU.SatThreads = 0
	if _, err := NewMultiSim(bad, 2); err == nil {
		t.Error("accepted invalid GPU params")
	}
	m, _ := NewMultiSim(HPU1(), 1)
	defer func() {
		if recover() == nil {
			t.Error("negative transfer did not panic")
		}
	}()
	m.TransferToGPU(-1, nil)
}

func TestSimAccessors(t *testing.T) {
	s := MustSim(HPU2())
	if s.Platform().Name != "HPU2" {
		t.Errorf("Platform = %s", s.Platform().Name)
	}
	gpu, ok := s.GPU().(*simgpu.GPU)
	if s.Engine() == nil || s.SimCPU() == nil || !ok || gpu == nil {
		t.Fatal("nil accessors")
	}
	if gpu.Params().SatThreads != 1200 {
		t.Errorf("simulated GPU SatThreads = %d", gpu.Params().SatThreads)
	}
}
