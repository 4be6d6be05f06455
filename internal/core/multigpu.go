package core

import (
	"context"
	"fmt"

	"repro/internal/dcerr"
)

// MultiGPUBackend is a Backend with several GPU devices (the §3.2 extension
// to multiple cards). Devices share the host link.
type MultiGPUBackend interface {
	Backend
	// GPUs returns the device list; GPU() must be GPUs()[0].
	GPUs() []LevelExecutor
}

// RunMultiGPUCtx is the advanced work division with the GPU portion striped
// across all devices of the backend: at the split level the CPU keeps α of
// the subproblems and each device receives an equal contiguous share of the
// rest, running it bottom-up through level y before handing back. Each
// device costs two link crossings, so more devices only pay off when the
// per-device work dwarfs the extra transfers — the trade-off the paper's
// footnote 5 cites for using a single die of the HD 5970.
//
// It is RunAdvancedHybridCtx's division with k = min(devices, GPU
// subproblems) stripes instead of one, and takes the same options: the split
// level defaults to DefaultSplit (WithSplit overrides it), WithGrain coarsens
// the CPU portion's leaf levels down to the split level, WithCoalesce wraps
// each stripe in the §6.3 layout switch. The Report's Strategy is
// "advanced-<k>gpu", CPUPortionSeconds the time from the fork to the end of
// the CPU portion and GPUPortionSeconds the time from the fork to the end of
// the slowest stripe, its CPU combines above y included.
//
// ctx is checked at every level boundary of every chain; on cancellation the
// partial Report's error wraps dcerr.ErrCanceled.
func RunMultiGPUCtx(ctx context.Context, be MultiGPUBackend, alg GPUAlg, alpha float64, y int, opts ...Option) (Report, error) {
	r, err := open(be, opts)
	if err != nil {
		return Report{}, err
	}
	devices := be.GPUs()
	if len(devices) == 0 {
		return Report{}, fmt.Errorf("core: %w (multi-GPU strategy)", dcerr.ErrNoGPU)
	}
	if err := checkAlphaY(alg, alpha, y); err != nil {
		return Report{}, err
	}
	d, err := splitDivision(be, &r.cfg, alg, alpha, y, devices)
	if err != nil {
		return Report{}, err
	}
	r.execute(ctx, alg, alg, fmt.Sprintf("advanced-%dgpu", len(d.devs)), d)
	r.rep[0].CPUPortionSeconds = since(r.chains[chCPU].end, r.forkAt())
	for i := range r.devs() {
		r.rep[0].GPUPortionSeconds = max(r.rep[0].GPUPortionSeconds, r.devs()[i].end-r.forkAt())
	}
	return r.report()
}
