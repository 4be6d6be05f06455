package core_test

import (
	"context"
	"reflect"
	"testing"

	. "repro/internal/core"
	"repro/internal/hpu"
)

func TestRunConfigDefaults(t *testing.T) {
	c := NewRunConfig()
	if c.Coalesce || c.SplitSet || c.Intervals != nil || c.Observe != nil {
		t.Errorf("zero options resolved to non-default config %+v", c)
	}
	if c.Priority != 1 {
		t.Errorf("default priority = %d, want 1", c.Priority)
	}
}

func TestWithPriorityClamp(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{-3, 1}, {0, 1}, {1, 1}, {7, 7}} {
		if got := NewRunConfig(WithPriority(tc.in)).Priority; got != tc.want {
			t.Errorf("WithPriority(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestWithSplitNegativeRestoresDefault(t *testing.T) {
	c := NewRunConfig(WithSplit(3))
	if !c.SplitSet || c.Split != 3 {
		t.Errorf("WithSplit(3) = %+v", c)
	}
	c = NewRunConfig(WithSplit(3), WithSplit(-1))
	if c.SplitSet {
		t.Errorf("WithSplit(-1) did not restore the default: %+v", c)
	}
}

func TestWithObserverChains(t *testing.T) {
	var order []string
	c := NewRunConfig(
		WithObserver(func(*Report) { order = append(order, "first") }),
		WithObserver(nil),
		WithObserver(func(*Report) { order = append(order, "second") }),
	)
	c.Observe(&Report{})
	if want := []string{"first", "second"}; !reflect.DeepEqual(order, want) {
		t.Errorf("observers ran as %v, want %v", order, want)
	}
}

// TestWithSplitRestoreEquivalence asserts WithSplit(-1) undoes an earlier
// WithSplit at execution level too: the run is identical — same batch
// sequence on the deterministic simulator, same virtual makespan — to one
// that never set a split level.
func TestWithSplitRestoreEquivalence(t *testing.T) {
	plain := newProbe(2, 6)
	repPlain, err := RunAdvancedHybridCtx(context.Background(), hpu.MustSim(hpu.HPU1()), plain,
		0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	restored := newProbe(2, 6)
	repRestored, err := RunAdvancedHybridCtx(context.Background(), hpu.MustSim(hpu.HPU1()), restored,
		0.3, 4, WithSplit(2), WithSplit(-1))
	if err != nil {
		t.Fatal(err)
	}
	if repPlain.Seconds != repRestored.Seconds {
		t.Errorf("makespans differ: default %g, WithSplit(-1) %g", repPlain.Seconds, repRestored.Seconds)
	}
	if !reflect.DeepEqual(plain.events, restored.events) {
		t.Errorf("batch sequences differ:\ndefault %v\nWithSplit(-1) %v", plain.events, restored.events)
	}
}

// TestWithIntervalsChains asserts hooks chain in registration order, a nil
// hook is ignored, and every hook hears every interval of the run.
func TestWithIntervalsChains(t *testing.T) {
	var order []string
	_, err := RunSequentialCtx(context.Background(), hpu.MustSim(hpu.HPU1()), newProbe(2, 3),
		WithIntervals(func(Interval) { order = append(order, "first") }),
		WithIntervals(nil),
		WithIntervals(func(Interval) { order = append(order, "second") }))
	if err != nil {
		t.Fatal(err)
	}
	// The probe's three divide levels, its leaves and three combine levels,
	// each folded into one batch.
	if len(order) != 2*7 {
		t.Fatalf("hooks heard %d intervals, want 2 x 7", len(order))
	}
	for i := 0; i < len(order); i += 2 {
		if order[i] != "first" || order[i+1] != "second" {
			t.Fatalf("hooks ran as %v, want first, second per interval", order)
		}
	}
}
