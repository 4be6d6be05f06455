// Package servetest holds what the tests of serve, the tests of the layers
// above it and the serving smoke share: a job that occupies a slot for exactly
// as long as the test needs it to.
package servetest

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/serve"
)

// GateAlg is a two-leaf algorithm whose base tasks block on a channel,
// letting tests hold the backend busy (and the admission queue full) at a
// known point, and record when they actually execute. A test that needs a
// slot occupied until it has made an assertion submits one of these and
// closes Gate afterwards; how long some real job happens to run is not a
// clock.
type GateAlg struct {
	Label string
	Gate  chan struct{} // base tasks block until this closes; nil = no gate
	Ran   func()        // called once from the first base task
}

var _ core.Alg = (*GateAlg)(nil)

func (g *GateAlg) Name() string { return g.Label }
func (g *GateAlg) Arity() int   { return 2 }
func (g *GateAlg) Shrink() int  { return 2 }
func (g *GateAlg) N() int       { return 2 }
func (g *GateAlg) Levels() int  { return 1 }

func (g *GateAlg) DivideBatch(level, lo, hi int) core.Batch { return core.Batch{} }
func (g *GateAlg) BaseBatch(lo, hi int) core.Batch {
	return core.Batch{
		Tasks: hi - lo,
		Cost:  core.Cost{Ops: 1},
		Run: func(i int) {
			if g.Gate != nil {
				<-g.Gate
			}
			if i == 0 && g.Ran != nil {
				g.Ran()
			}
		},
	}
}
func (g *GateAlg) CombineBatch(level, lo, hi int) core.Batch { return core.Batch{} }

// Hold occupies n execution slots of an otherwise idle pool with gated jobs
// submitted in process; each holds its slot from the moment Submit returns.
// release lets them finish and is safe to call more than once.
func Hold(pool *serve.Server, n int) (release func(), err error) {
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	for held := 1; held <= n; held++ {
		if _, err := pool.Submit(context.Background(), serve.Job{Alg: &GateAlg{Label: "blocker", Gate: gate}}); err != nil {
			release()
			return release, fmt.Errorf("servetest: blocker %d of %d: %w", held, n, err)
		}
	}
	if st := pool.Stats(); st.InFlight != n {
		release()
		return release, fmt.Errorf("servetest: %d blockers hold %d slots (stats %+v)", n, st.InFlight, st)
	}
	return release, nil
}
