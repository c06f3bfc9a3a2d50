package core

import (
	"testing"

	"repro/internal/operators"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// newTelemetrySearcher is newTestSearcher with an enabled instrument layer.
func newTelemetrySearcher(t *testing.T) (*searcher, *stubProc, *telemetry.Telemetry) {
	t.Helper()
	in := testInstance(t, 20)
	cfg := smallConfig()
	cfg.Telemetry = telemetry.New(nil, nil)
	if err := cfg.validate(in, Sequential); err != nil {
		t.Fatal(err)
	}
	s := newSearcher(in, &cfg, rng.New(1), 0, 0, 0)
	p := &stubProc{}
	s.init(p)
	return s, p, cfg.Telemetry
}

// TestTelemetryRestartNoCandidate drives the "s ∉ N" trigger: a candidate
// set whose only members are tabu and non-aspiring leaves selectCand
// empty-handed, which must restart and count RestartsNoCand.
func TestTelemetryRestartNoCandidate(t *testing.T) {
	s, p, tel := newTelemetrySearcher(t)
	cur := s.cur.Obj
	s.tl.Add(7)
	// Tabu, and dominated by the archived current solution: no aspiration.
	bad := mkCand(cur.Distance+10, cur.Vehicles, cur.Tardiness+1, 7)
	s.stepCands(p, []cand{bad})

	if got := tel.Load(telemetry.RestartsNoCandidate); got != 1 {
		t.Errorf("RestartsNoCand = %d, want 1", got)
	}
	if got := tel.Load(telemetry.RestartsStagnation); got != 0 {
		t.Errorf("RestartsStagn = %d, want 0", got)
	}
	if got := tel.Load(telemetry.TabuRejected); got != 1 {
		t.Errorf("TabuRejected = %d, want 1", got)
	}
	if got := tel.Load(telemetry.Iterations); got != 1 {
		t.Errorf("Iterations = %d, want 1", got)
	}
}

// TestTelemetryRestartStagnation drives the 100-iteration (here: perturbed
// small-config) stagnation trigger and checks it is counted separately.
func TestTelemetryRestartStagnation(t *testing.T) {
	s, p, tel := newTelemetrySearcher(t)
	cur := s.cur
	for i := 0; i < s.restartIters; i++ {
		bad := mkCand(cur.Obj.Distance+float64(i+1), cur.Obj.Vehicles+1, cur.Obj.Tardiness+1, tabu.Attribute(100+i))
		s.stepCands(p, []cand{bad})
	}
	if !s.noImprovement {
		t.Fatal("stagnation flag not raised")
	}
	if got := tel.Load(telemetry.RestartsStagnation); got != 0 {
		t.Fatalf("stagnation restart fired early: %d", got)
	}
	good := mkCand(cur.Obj.Distance-1, cur.Obj.Vehicles, cur.Obj.Tardiness, 999)
	s.stepCands(p, []cand{good})
	if got := tel.Load(telemetry.RestartsStagnation); got != 1 {
		t.Errorf("RestartsStagn = %d, want 1", got)
	}
	if got := tel.Load(telemetry.RestartsNoCandidate); got != 0 {
		t.Errorf("RestartsNoCand = %d, want 0", got)
	}
}

// TestTelemetryRestartConsumesNondom pins the memory semantics of restarts
// via the counters: M_nondom entries are consumed (NondomConsumed grows as
// the store shrinks) while archive entries survive every restart.
func TestTelemetryRestartConsumesNondom(t *testing.T) {
	s, _, tel := newTelemetrySearcher(t)
	// Empty the archive's influence: restart draws from nondom ∪ archive,
	// so with a filled M_nondom and the 1-entry archive, repeated restarts
	// must eventually consume nondom entries.
	for i := 0; i < 5; i++ {
		s.nondom.Add(&solution.Solution{Obj: solution.Objectives{
			Distance: float64(10 - i), Vehicles: float64(i + 1),
		}})
	}
	archiveBefore := s.archive.Len()
	nondomBefore := s.nondom.Len()
	consumed := 0
	for i := 0; i < 50 && s.nondom.Len() > 0; i++ {
		consumed += s.restart()
	}
	if consumed == 0 {
		t.Fatal("no M_nondom entry consumed over 50 restarts")
	}
	if got := tel.Load(telemetry.NondomConsumed); got != 0 {
		// restart() itself does not count; step() does. Counted below.
		t.Fatalf("restart() counted NondomConsumed directly: %d", got)
	}
	if s.nondom.Len() != nondomBefore-consumed {
		t.Errorf("M_nondom shrank by %d, consumed %d", nondomBefore-s.nondom.Len(), consumed)
	}
	if s.archive.Len() != archiveBefore {
		t.Errorf("archive size changed across restarts: %d -> %d", archiveBefore, s.archive.Len())
	}

	// Now through step(): the no-candidate restart must add what it
	// consumed to the counter.
	cur := s.cur.Obj
	s.nondom.Add(&solution.Solution{Obj: solution.Objectives{Distance: 1, Vehicles: 1}})
	p := &stubProc{}
	for i := 0; i < 50 && tel.Load(telemetry.NondomConsumed) == 0; i++ {
		s.tl.Add(tabu.Attribute(500 + i))
		bad := mkCand(cur.Distance+10, cur.Vehicles+1, cur.Tardiness+1, tabu.Attribute(500+i))
		s.stepCands(p, []cand{bad})
		// Refill so a consumable entry is always available.
		s.nondom.Add(&solution.Solution{Obj: solution.Objectives{Distance: 1, Vehicles: 1}})
	}
	if got := tel.Load(telemetry.NondomConsumed); got == 0 {
		t.Error("NondomConsumed never counted through step()")
	}
}

// TestTelemetryAspirationCounter checks the aspiration instrument against
// the selection semantics already pinned by TestSelectCandAspiration.
func TestTelemetryAspirationCounter(t *testing.T) {
	s, _, tel := newTelemetrySearcher(t)
	cur := s.cur.Obj
	s.tl.Add(9)
	cands := []cand{mkCand(cur.Distance-50, cur.Vehicles, 0, 9)}
	if got := s.selectFrom(cands); got != 0 {
		t.Fatal("aspiration did not admit the candidate")
	}
	if got := tel.Load(telemetry.AspirationFires); got != 1 {
		t.Errorf("AspirationFires = %d, want 1", got)
	}
	if got := tel.Load(telemetry.TabuRejected); got != 0 {
		t.Errorf("TabuRejected = %d, want 0", got)
	}
}

// TestTelemetryOperatorFunnel runs real iterations and checks the operator
// funnel invariants: proposals cover the neighborhood, selections and
// acceptances never exceed proposals, and generation-side failures land on
// the row of the operator that proposes — also for the extension operators,
// whose moves of several lengths must share their operator's one row.
func TestTelemetryOperatorFunnel(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		ops       []operators.MoveKind
		granularK int
		seed      uint64
		iters     int
	}{
		{"default", 20, nil, 0, 1, 30},
		{"extended-granular", 40, operators.Extended(), 5, 3, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := testInstance(t, tc.n)
			cfg := smallConfig()
			cfg.Operators = tc.ops
			cfg.GranularK = tc.granularK
			cfg.Telemetry = telemetry.New(nil, nil)
			if err := cfg.validate(in, Sequential); err != nil {
				t.Fatal(err)
			}
			tel := cfg.Telemetry
			s := newSearcher(in, &cfg, rng.New(tc.seed), 0, 0, 0)
			p := &stubProc{}
			s.init(p)
			for i := 0; i < tc.iters; i++ {
				s.generate(p, s.neighborhood)
				s.stepSweep(p)
			}
			snap := tel.Snapshot()["operators"].(map[string]map[string]any)
			if len(snap) == 0 {
				t.Fatal("no operator stats recorded")
			}
			var proposed, selected int64
			for name, e := range snap {
				prop := e["proposed"].(int64)
				sel := e["selected"].(int64)
				acc := e["accepted"].(int64)
				if sel > prop || acc > prop {
					t.Errorf("operator %s funnel inverted: %v", name, e)
				}
				if (e["exhausted"].(int64) > 0 || e["granular_fallbacks"].(int64) > 0) && prop == 0 {
					t.Errorf("operator %s counts generation failures but no proposals: %v", name, e)
				}
				proposed += prop
				selected += sel
			}
			if proposed != tel.Load(telemetry.Evaluations)-1 { // -1: the construction eval
				t.Errorf("proposals %d != evaluations-1 %d", proposed, tel.Load(telemetry.Evaluations)-1)
			}
			if selected == 0 {
				t.Errorf("no operator was ever selected over %d iterations", tc.iters)
			}
			if tel.Load(telemetry.DeltaFast) != proposed {
				t.Errorf("delta fast %d != proposals %d", tel.Load(telemetry.DeltaFast), proposed)
			}
			if tel.Load(telemetry.SpliceCalls) == 0 {
				t.Error("SpliceMetrics instrument never fired")
			}
		})
	}
}

// TestTelemetryDeterminism asserts the instrument layer does not perturb
// the search: the same seeded run with and without telemetry must visit
// the identical trajectory.
func TestTelemetryDeterminism(t *testing.T) {
	runOnce := func(tel *telemetry.Telemetry) solution.Objectives {
		in := testInstance(t, 20)
		cfg := smallConfig()
		cfg.Telemetry = tel
		if err := cfg.validate(in, Sequential); err != nil {
			t.Fatal(err)
		}
		s := newSearcher(in, &cfg, rng.New(42), 0, 0, 0)
		p := &stubProc{}
		s.init(p)
		for i := 0; i < 40; i++ {
			s.generate(p, s.neighborhood)
			s.stepSweep(p)
		}
		return s.cur.Obj
	}
	plain := runOnce(nil)
	instrumented := runOnce(telemetry.New(nil, nil))
	if plain != instrumented {
		t.Errorf("telemetry changed the trajectory: %+v vs %+v", plain, instrumented)
	}
}

// TestSearcherIterationTelemetryAllocs is the zero-extra-allocation gate on
// the hot path (wired into make verify): a full generate+step iteration on
// the 400-customer benchmark instance must allocate exactly as much with
// disabled telemetry as the layer-free baseline, and enabling the
// instruments must add zero allocations per iteration.
func TestSearcherIterationTelemetryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("400-customer instance construction in -short mode")
	}
	measure := func(tel *telemetry.Telemetry) float64 {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.MaxEvaluations = 1 << 60
		cfg.Telemetry = tel
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
	enabled := measure(telemetry.New(nil, nil))
	if enabled > disabled {
		t.Errorf("enabled telemetry allocates more: %.1f vs %.1f allocs/iteration", enabled, disabled)
	}
	// Guard against silent hot-path regressions: the first delta engine
	// made 226 allocs per iteration; leave headroom for archive churn
	// variance only.
	if disabled > 300 {
		t.Errorf("disabled-telemetry iteration allocates %.1f times, want <= 300", disabled)
	}
}

// TestRestartStepTelemetryAllocs pins the event gating rule: solver events
// are built only when a sink is attached. A step that restarts ("s ∉ N")
// and takes a convergence sample must allocate no more under an
// instruments-only layer than with telemetry off.
func TestRestartStepTelemetryAllocs(t *testing.T) {
	measure := func(tel *telemetry.Telemetry) float64 {
		in := testInstance(t, 20)
		cfg := smallConfig()
		cfg.SampleEvery = 1
		cfg.Telemetry = tel
		if err := cfg.validate(in, Sequential); err != nil {
			t.Fatal(err)
		}
		s := newSearcher(in, &cfg, rng.New(1), 0, 0, 0)
		s.sampleOn = true
		p := &stubProc{}
		s.init(p)
		cur := s.cur.Obj
		s.tl.Add(7)
		// Tabu, and dominated by the archived construction solution: no
		// aspiration, so every step restarts.
		bad := []cand{mkCand(cur.Distance+10, cur.Vehicles, cur.Tardiness+1, 7)}
		return testing.AllocsPerRun(50, func() {
			s.lastSample = s.evals - 1
			s.stepCands(p, bad)
		})
	}
	off := measure(nil)
	tel := telemetry.New(nil, nil)
	instruments := measure(tel)
	if got := tel.Load(telemetry.RestartsNoCandidate); got < 50 {
		t.Fatalf("RestartsNoCand = %d, want every step to restart", got)
	}
	if instruments > off {
		t.Errorf("instruments-only telemetry allocates more on a restarting step: %.1f vs %.1f", instruments, off)
	}
}
