package core

import (
	"context"
	"testing"

	"repro/internal/deme"
	"repro/internal/rng"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// traceSearcher builds a small searcher with the span recorder wired the
// way RunContext wires it: tr is the trace, phase the run-level parent.
func traceSearcher(t *testing.T, tr *trace.Trace) (*searcher, *stubProc) {
	t.Helper()
	in := testInstance(t, 20)
	cfg := smallConfig()
	if err := cfg.validate(in, Sequential); err != nil {
		t.Fatal(err)
	}
	cfg.tracer = tr
	cfg.span = tr.Start(nil, "run")
	s := newSearcher(in, &cfg, rng.New(1), 0, 0, 0)
	p := &stubProc{}
	s.init(p)
	return s, p
}

// TestSweepBatching pins the span-budget policy: iterations share batched
// "sweep" spans instead of producing one span each, and outcome() seals
// the open batch so no span is lost at termination.
func TestSweepBatching(t *testing.T) {
	tr := trace.New(0)
	s, p := traceSearcher(t, tr)
	iters := sweepBatchIters + 10
	for i := 0; i < iters; i++ {
		s.generate(p, s.neighborhood)
		s.stepSweep(p)
	}
	s.outcome()

	spans, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d spans", dropped)
	}
	var construct, sweeps int
	for _, d := range spans {
		switch d.Name {
		case "construct":
			construct++
		case "sweep":
			sweeps++
		}
	}
	if construct != 1 {
		t.Errorf("construct spans = %d, want 1", construct)
	}
	if sweeps != 2 {
		t.Errorf("sweep spans = %d for %d iterations, want 2", sweeps, iters)
	}
	// The sealed sweeps must cover all iterations contiguously.
	covered := int64(0)
	for _, d := range spans {
		if d.Name != "sweep" {
			continue
		}
		var lo, hi int64 = -1, -1
		for _, a := range d.Attrs {
			switch a.Key {
			case "iter_lo":
				lo = a.Num
			case "iter_hi":
				hi = a.Num
			}
		}
		if lo < 0 || hi <= lo {
			t.Errorf("sweep span missing its iteration range: %+v", d.Attrs)
		}
		covered += hi - lo
	}
	if covered != int64(iters) {
		t.Errorf("sweep spans cover %d iterations, want %d", covered, iters)
	}
}

// TestRunContextSpanTree runs a real (tiny) sequential search under a
// traced context and asserts the recorded spans form a single tree rooted
// at "run": every phase span parents to the run span, so ring overflow
// can only drop leaves.
func TestRunContextSpanTree(t *testing.T) {
	in := testInstance(t, 20)
	cfg := DefaultConfig()
	cfg.MaxEvaluations = 3000
	cfg.Seed = 7

	tr := trace.New(0)
	ctx := trace.NewContext(context.Background(), tr, nil)
	if _, err := RunContext(ctx, Sequential, in, cfg, deme.NewSim(deme.Origin3800())); err != nil {
		t.Fatal(err)
	}

	spans, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d spans", dropped)
	}
	var run *trace.SpanData
	names := map[string]int{}
	for i := range spans {
		names[spans[i].Name]++
		if spans[i].Name == "run" {
			run = &spans[i]
		}
	}
	if run == nil {
		t.Fatalf("no run span among %v", names)
	}
	if !run.Parent.IsZero() {
		t.Errorf("run span has parent %s, want trace root", run.Parent)
	}
	for _, want := range []string{"deme.run", "construct", "sweep"} {
		if names[want] == 0 {
			t.Errorf("missing %q span (got %v)", want, names)
		}
	}
	for _, d := range spans {
		if d.Name == "run" {
			continue
		}
		if d.Parent != run.ID {
			t.Errorf("span %q parents to %s, not the run span", d.Name, d.Parent)
		}
		if d.End.Before(d.Start) {
			t.Errorf("span %q ends before it starts", d.Name)
		}
	}
}

// TestTraceDeterminism asserts the recorder does not perturb the search:
// the same seeded run with and without tracing visits the same trajectory.
func TestTraceDeterminism(t *testing.T) {
	run := func(traced bool) []float64 {
		in := testInstance(t, 20)
		cfg := DefaultConfig()
		cfg.MaxEvaluations = 3000
		cfg.Seed = 11
		ctx := context.Background()
		if traced {
			ctx = trace.NewContext(ctx, trace.New(0), nil)
		}
		res, err := RunContext(ctx, Sequential, in, cfg, deme.NewSim(deme.Origin3800()))
		if err != nil {
			t.Fatal(err)
		}
		var objs []float64
		for _, s := range res.Front {
			objs = append(objs, s.Obj.Distance, s.Obj.Vehicles, s.Obj.Tardiness)
		}
		return objs
	}
	plain, traced := run(false), run(true)
	if len(plain) != len(traced) {
		t.Fatalf("front sizes differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("tracing changed the trajectory: %v vs %v", plain, traced)
		}
	}
}

// TestSearcherIterationTraceAllocs is the zero-extra-allocation gate on
// the disabled tracing path (wired into make allocs): with no recorder an
// iteration must allocate exactly as much as before the tracing layer,
// and an enabled recorder may add at most one amortized allocation per
// iteration (one sweep span per sweepBatchIters iterations plus its
// attribute appends).
func TestSearcherIterationTraceAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("400-customer instance construction in -short mode")
	}
	measure := func(tr *trace.Trace) float64 {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MaxEvaluations = 1 << 60
		cfg.tracer = tr
		cfg.span = tr.Start(nil, "run")
		if err := cfg.validate(in, Sequential); err != nil {
			t.Fatal(err)
		}
		s := newSearcher(in, &cfg, rng.New(1), 0, 0, 0)
		p := &stubProc{}
		s.init(p)
		return testing.AllocsPerRun(20, func() {
			s.generate(p, cfg.NeighborhoodSize)
			s.stepSweep(p)
		})
	}
	disabled := measure(nil)
	enabled := measure(trace.New(0))
	if enabled > disabled+1 {
		t.Errorf("enabled tracing allocates %.1f/iteration vs %.1f disabled; want <= +1 amortized",
			enabled, disabled)
	}
	if disabled > 300 {
		t.Errorf("disabled-tracing iteration allocates %.1f times, want <= 300", disabled)
	}
}
