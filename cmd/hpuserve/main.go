// Command hpuserve serves the remote job API (DESIGN.md §14): HTTP/JSON and
// binary-frame job submission over a pool of --devices native backends, with
// /metrics (a JSON snapshot of the metrics registry) and /debug/trace (a
// Chrome trace-event download of the most recent spans) on the same
// listener. SIGTERM or SIGINT drains it: admission stops (503 + Retry-After),
// every accepted job runs to settlement, and only then does the listener
// close.
//
//	go run ./cmd/hpuserve --listen 127.0.0.1:8080 --devices 2
//
// Performance is measured by the one harness in bench/ (bash bench/run.sh,
// declared in BENCHMARK.json), not by this binary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro"
)

// config is the command line.
type config struct {
	Addr     string
	Workers  int
	Lanes    int
	Devices  int
	InFlight int
	QDepth   int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.Addr, "listen", "127.0.0.1:8080", "listen address")
	flag.IntVar(&cfg.Workers, "workers", runtime.GOMAXPROCS(0), "CPU pool size of each native backend")
	flag.IntVar(&cfg.Lanes, "lanes", 64, "device pool size of each native backend")
	flag.IntVar(&cfg.Devices, "devices", 1, "number of native backends in the serving pool")
	flag.IntVar(&cfg.InFlight, "inflight", 8, "max jobs in flight per device")
	flag.IntVar(&cfg.QDepth, "qdepth", 32, "admission queue depth")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hpuserve:", err)
		os.Exit(1)
	}
}

// run serves until SIGTERM or SIGINT, drains, and tears the stack down.
func run(cfg config) error {
	s, err := start(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("hpuserve: serving http://%s/v1/jobs (%d devices, queue %d, inflight %d); SIGTERM drains\n",
		s.addr, cfg.Devices, cfg.QDepth, cfg.InFlight)
	err = s.wait()
	st := s.pool.Stats()
	fmt.Printf("hpuserve: drained; served %d jobs (%d completed, %d canceled, %d failed, %d rejected)\n",
		st.Submitted, st.Completed, st.Canceled, st.Failed, st.Rejected)
	return err
}

// stack is one running serving stack: native backends, the serving pool,
// and the API server on a TCP listener.
type stack struct {
	backends []*hybriddc.Native
	pool     *hybriddc.Server
	api      *hybriddc.APIServer
	addr     string

	served   chan error // Serve returned: the listener is closed
	drained  chan error // Shutdown returned
	shutdown func()     // starts the drain a signal would start; idempotent
}

// start builds the stack and starts serving; SIGTERM or SIGINT, or a call to
// shutdown, starts the drain. On error nothing it started is left running.
func start(cfg config) (_ *stack, err error) {
	s := &stack{served: make(chan error, 1), drained: make(chan error, 1)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	reg := hybriddc.NewMetrics()
	rec := hybriddc.NewTraceRecorderLimit(1 << 15)
	devices := make([]hybriddc.Backend, cfg.Devices)
	for i := range devices {
		be, err := hybriddc.NewNative(hybriddc.NativeConfig{CPUWorkers: cfg.Workers, DeviceLanes: cfg.Lanes})
		if err != nil {
			return nil, err
		}
		s.backends = append(s.backends, be)
		devices[i] = be
	}
	if s.pool, err = hybriddc.NewServerPool(devices,
		hybriddc.WithQueueDepth(cfg.QDepth),
		hybriddc.WithMaxInFlight(cfg.InFlight),
		hybriddc.WithServerMetrics(reg),
		hybriddc.WithServerRecorder(rec)); err != nil {
		return nil, err
	}
	if s.api, err = hybriddc.NewAPIServer(s.pool,
		hybriddc.WithAPIMetrics(reg),
		hybriddc.WithAPIRecorder(rec),
		hybriddc.WithAPIEventPoll(5*time.Millisecond)); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.addr = ln.Addr().String()
	go func() { s.served <- s.api.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	s.shutdown = stop
	go func() {
		<-sigCtx.Done()
		stop()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		s.drained <- s.api.Shutdown(ctx)
	}()
	return s, nil
}

// wait blocks until the listener has closed and the drain has finished, then
// closes the pool and the backends. A listener that fails on its own starts
// the drain too.
func (s *stack) wait() error {
	serveErr := <-s.served
	s.shutdown()
	drainErr := <-s.drained
	return errors.Join(serveErr, drainErr, s.close())
}

// close closes whatever part of the pool and its backends has been built.
func (s *stack) close() error {
	var errs []error
	if s.pool != nil {
		errs = append(errs, s.pool.Close())
	}
	for _, be := range s.backends {
		errs = append(errs, be.Close())
	}
	return errors.Join(errs...)
}
