package core

import (
	"math"
	"testing"

	"repro/internal/construct"
	"repro/internal/deme"
	"repro/internal/operators"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

func testInstance(t testing.TB, n int) *vrptw.Instance {
	t.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: n, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// smallConfig keeps unit-test runs fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxEvaluations = 3000
	cfg.NeighborhoodSize = 50
	cfg.RestartIterations = 20
	cfg.Seed = 7
	return cfg
}

func checkResult(t *testing.T, in *vrptw.Instance, res *Result, wantMinEvals int) {
	t.Helper()
	if len(res.Front) == 0 {
		t.Fatal("empty front")
	}
	for i, s := range res.Front {
		if err := solution.Validate(in, s); err != nil {
			t.Fatalf("front[%d] invalid: %v", i, err)
		}
	}
	// The front must be mutually non-dominated.
	for i := range res.Front {
		for j := range res.Front {
			if i != j && res.Front[i].Obj.Dominates(res.Front[j].Obj) {
				t.Fatalf("front[%d] dominates front[%d]", i, j)
			}
		}
	}
	if res.Evaluations < wantMinEvals {
		t.Errorf("evaluations %d below budget %d", res.Evaluations, wantMinEvals)
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed not positive")
	}
	if res.Iterations <= 0 {
		t.Error("no iterations recorded")
	}
}

func TestSequentialRun(t *testing.T) {
	in := testInstance(t, 40)
	cfg := smallConfig()
	res, err := Run(Sequential, in, cfg, deme.NewSim(deme.Ideal()))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, res, cfg.MaxEvaluations)
	if res.Processors != 1 || res.Algorithm != Sequential {
		t.Errorf("result metadata wrong: %v P=%d", res.Algorithm, res.Processors)
	}
	// The search must improve on the construction heuristic's distance.
	init := construct.I1(in, construct.DefaultParams())
	if best := res.BestDistance(); best >= init.Obj.Distance {
		t.Errorf("search (%.1f) did not improve on I1 (%.1f)", best, init.Obj.Distance)
	}
}

func TestSequentialDeterministicOnSim(t *testing.T) {
	in := testInstance(t, 30)
	cfg := smallConfig()
	run := func() *Result {
		res, err := Run(Sequential, in, cfg, deme.NewSim(deme.Origin3800()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Elapsed != b.Elapsed || a.Evaluations != b.Evaluations || len(a.Front) != len(b.Front) {
		t.Fatalf("nondeterministic: %v/%d/%d vs %v/%d/%d",
			a.Elapsed, a.Evaluations, len(a.Front), b.Elapsed, b.Evaluations, len(b.Front))
	}
	for i := range a.Front {
		if a.Front[i].Obj != b.Front[i].Obj {
			t.Fatalf("front differs at %d", i)
		}
	}
}

func TestSeedsMatter(t *testing.T) {
	in := testInstance(t, 30)
	cfg := smallConfig()
	a, err := Run(Sequential, in, cfg, deme.NewSim(deme.Ideal()))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 8
	b, err := Run(Sequential, in, cfg, deme.NewSim(deme.Ideal()))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestDistance() == b.BestDistance() && a.Iterations == b.Iterations {
		t.Error("different seeds produced identical runs")
	}
}

func TestSynchronousRun(t *testing.T) {
	in := testInstance(t, 40)
	cfg := smallConfig()
	cfg.Processors = 3
	res, err := Run(Synchronous, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, res, cfg.MaxEvaluations)
}

func TestAsynchronousRun(t *testing.T) {
	in := testInstance(t, 40)
	cfg := smallConfig()
	cfg.Processors = 3
	res, err := Run(Asynchronous, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, res, cfg.MaxEvaluations)
}

func TestCollaborativeRun(t *testing.T) {
	in := testInstance(t, 40)
	cfg := smallConfig()
	cfg.Processors = 3
	res, err := Run(Collaborative, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatal(err)
	}
	// Every searcher spends the full budget.
	checkResult(t, in, res, 3*cfg.MaxEvaluations)
}

func TestCombinedRun(t *testing.T) {
	in := testInstance(t, 40)
	cfg := smallConfig()
	cfg.Processors = 4
	cfg.Islands = 2
	res, err := Run(Combined, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, res, 2*cfg.MaxEvaluations)
}

func TestRuntimeOrderingOnSimulatedMachine(t *testing.T) {
	// The paper's §IV runtime ordering, averaged over a few simulated
	// machine placements: async < sync < sequential, collaborative
	// slowest. Uses a worker-bound regime (neighborhood evaluation
	// dominating the master's serial work), as in the paper's setup.
	in := testInstance(t, 400)
	cfg := smallConfig()
	cfg.MaxEvaluations = 6000
	cfg.NeighborhoodSize = 200
	avg := func(alg Algorithm, procs int) float64 {
		c := cfg
		c.Processors = procs
		var sum float64
		const reps = 3
		for i := uint64(0); i < reps; i++ {
			m := deme.Origin3800()
			m.Seed = 500 + i
			res, err := Run(alg, in, c, deme.NewSim(m))
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Elapsed
		}
		return sum / reps
	}
	seq := avg(Sequential, 1)
	syn := avg(Synchronous, 3)
	asy := avg(Asynchronous, 3)
	col := avg(Collaborative, 3)
	if !(asy < syn) {
		t.Errorf("async (%.1f) not faster than sync (%.1f)", asy, syn)
	}
	if !(syn < seq) {
		t.Errorf("sync (%.1f) not faster than sequential (%.1f)", syn, seq)
	}
	if !(col > seq) {
		t.Errorf("collaborative (%.1f) not slower than sequential (%.1f)", col, seq)
	}
}

func TestTrajectoryRecording(t *testing.T) {
	in := testInstance(t, 30)
	cfg := smallConfig()
	cfg.MaxEvaluations = 1500
	cfg.Processors = 3
	cfg.RecordTrajectory = true
	res, err := Run(Asynchronous, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trajectory == nil || len(res.Trajectory.Points) == 0 {
		t.Fatal("no trajectory recorded")
	}
	var selected, stale int
	for _, pt := range res.Trajectory.Points {
		if pt.Selected {
			selected++
		}
		if pt.Born < pt.Iteration-1 {
			stale++
		}
	}
	if selected == 0 {
		t.Error("no selected points in trajectory")
	}
	// The async master must have considered candidates born in earlier
	// iterations (the essence of Figure 1).
	if stale == 0 {
		t.Error("async trajectory shows no stale candidates")
	}
}

func TestGoroutineBackendSmoke(t *testing.T) {
	in := testInstance(t, 30)
	cfg := smallConfig()
	cfg.MaxEvaluations = 1000
	for _, tc := range []struct {
		alg   Algorithm
		procs int
	}{
		{Sequential, 1}, {Synchronous, 3}, {Asynchronous, 3}, {Collaborative, 3},
	} {
		c := cfg
		c.Processors = tc.procs
		res, err := Run(tc.alg, in, c, deme.NewGoroutine())
		if err != nil {
			t.Fatalf("%v: %v", tc.alg, err)
		}
		if len(res.Front) == 0 {
			t.Fatalf("%v: empty front", tc.alg)
		}
		for _, s := range res.Front {
			if err := solution.Validate(in, s); err != nil {
				t.Fatalf("%v: %v", tc.alg, err)
			}
		}
	}
}

func TestConfigValidation(t *testing.T) {
	in := testInstance(t, 20)
	rt := deme.NewSim(deme.Ideal())
	bad := []Config{
		{},
		func() Config { c := smallConfig(); c.MaxEvaluations = 0; return c }(),
		func() Config { c := smallConfig(); c.NeighborhoodSize = 0; return c }(),
		func() Config { c := smallConfig(); c.TabuTenure = 0; return c }(),
		func() Config { c := smallConfig(); c.RestartIterations = 0; return c }(),
		// Coordination timeouts: zero derives a default; a negative, NaN
		// or infinite value would keep the parallel variants from ever
		// returning, and no deme receive takes an infinite timeout.
		func() Config { c := smallConfig(); c.WaitTimeout = -1; return c }(),
		func() Config { c := smallConfig(); c.WaitTimeout = math.NaN(); return c }(),
		func() Config { c := smallConfig(); c.WaitTimeout = math.Inf(1); return c }(),
		func() Config { c := smallConfig(); c.RecvTimeout = -1; return c }(),
		func() Config { c := smallConfig(); c.RecvTimeout = math.NaN(); return c }(),
		func() Config { c := smallConfig(); c.RecvTimeout = math.Inf(1); return c }(),
		func() Config { c := smallConfig(); c.EvictAfter = -1; return c }(),
		// Cost fields: the coordination timeouts derive from them, so a
		// NaN, infinite or negative cost, or one whose derived timeout
		// overflows, must be refused before the run starts.
		func() Config { c := smallConfig(); c.Cost.EvalBase = math.NaN(); return c }(),
		func() Config { c := smallConfig(); c.Cost.EvalPerCustomer = math.Inf(1); return c }(),
		func() Config { c := smallConfig(); c.Cost.EvalPerRouteCustomer = -1e-6; return c }(),
		func() Config { c := smallConfig(); c.Cost.OverheadPerNeighbor = math.NaN(); return c }(),
		func() Config { c := smallConfig(); c.Cost.ConstructPerCustomer = math.Inf(-1); return c }(),
		func() Config { c := smallConfig(); c.Cost.EvalBase = 1e308; return c }(),
		// Operator sets no sweep can draw from: every sweep draws an
		// operator by index, and an unknown kind has no proposal path.
		func() Config { c := smallConfig(); c.Operators = []operators.MoveKind{}; return c }(),
		func() Config { c := smallConfig(); c.Operators = []operators.MoveKind{operators.KindNone}; return c }(),
		func() Config {
			c := smallConfig()
			c.Operators = []operators.MoveKind{operators.KindRelocate, operators.KindCrossExchange + 1}
			return c
		}(),
	}
	for i, c := range bad {
		// validate itself must refuse it: a run that starts and then fails
		// in a process also returns an error.
		if err := c.validate(in, Sequential); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	// A zero cost model is legal: every modeled cost is free.
	free := smallConfig()
	free.Cost = CostModel{}
	if err := free.validate(in, Sequential); err != nil {
		t.Errorf("zero cost model refused: %v", err)
	}
	// Parallel variants need P >= 2.
	c := smallConfig()
	c.Processors = 1
	for _, alg := range []Algorithm{Synchronous, Asynchronous, Collaborative} {
		if _, err := Run(alg, in, c, rt); err == nil {
			t.Errorf("%v accepted P=1", alg)
		}
	}
	// Combined needs sane islands.
	c.Processors = 3
	c.Islands = 3
	if _, err := Run(Combined, in, c, rt); err == nil {
		t.Error("combined accepted 3 islands of 1 process")
	}
}

// TestShareIngressTakesOverFleetRoutes folds, through the cluster
// exchange, an I1 construction that deploys more routes than its tight
// fleet, as I1 itself does on it. The ingress checks only what
// solution.New needs, so each share is absorbed, not counted malformed.
func TestShareIngressTakesOverFleetRoutes(t *testing.T) {
	gen := testInstance(t, 100)
	in, err := vrptw.New("tight", append([]vrptw.Site(nil), gen.Sites...), 3, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	i1 := construct.I1(in, construct.DefaultParams())
	if len(i1.Routes) <= in.Vehicles {
		t.Fatalf("I1 built %d routes for a %d-vehicle fleet; the test needs more", len(i1.Routes), in.Vehicles)
	}
	cfg := smallConfig()
	cfg.MaxEvaluations = 600
	cfg.NeighborhoodSize = 30
	cfg.Telemetry = telemetry.New(nil, nil)
	cfg.Share = &pinShare{batch: [][][]int{i1.Routes}}
	cfg.ShareEvery = 5
	if _, err := Run(Sequential, in, cfg, deme.NewSim(deme.Ideal())); err != nil {
		t.Fatal(err)
	}
	tel := cfg.Telemetry
	if n := tel.Load(telemetry.MalformedMsgs); n != 0 {
		t.Errorf("%d shares counted malformed", n)
	}
	if tel.Load(telemetry.SharesAccepted)+tel.Load(telemetry.SharesRejected) == 0 {
		t.Error("no share was folded")
	}
}

func TestParseAlgorithm(t *testing.T) {
	for i := Sequential; i <= Combined; i++ {
		a, err := ParseAlgorithm(i.String())
		if err != nil || a != i {
			t.Errorf("round trip failed for %v", i)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("accepted unknown algorithm")
	}
}

func TestFeasibleFrontFiltersAndBests(t *testing.T) {
	r := &Result{Front: []*solution.Solution{
		{Obj: solution.Objectives{Distance: 10, Vehicles: 3, Tardiness: 0}},
		{Obj: solution.Objectives{Distance: 5, Vehicles: 4, Tardiness: 2}},
		{Obj: solution.Objectives{Distance: 12, Vehicles: 2, Tardiness: 0}},
	}}
	ff := r.FeasibleFront()
	if len(ff) != 2 {
		t.Fatalf("feasible front size %d, want 2", len(ff))
	}
	if r.BestDistance() != 10 {
		t.Errorf("BestDistance = %g, want 10", r.BestDistance())
	}
	if r.MinVehicles() != 2 {
		t.Errorf("MinVehicles = %g, want 2", r.MinVehicles())
	}
	empty := &Result{}
	if !math.IsInf(empty.BestDistance(), 1) || !math.IsInf(empty.MinVehicles(), 1) {
		t.Error("empty result should report +Inf bests")
	}
}

func TestCollaborativeQualityTrend(t *testing.T) {
	// Across a few seeds, collaborative multisearch should on average
	// find solutions at least as good as sequential with the same
	// per-searcher budget (it runs P searchers and exchanges solutions).
	in := testInstance(t, 50)
	var seqBetter, colBetter int
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := smallConfig()
		cfg.Seed = seed
		cfg.MaxEvaluations = 4000
		seq, err := Run(Sequential, in, cfg, deme.NewSim(deme.Ideal()))
		if err != nil {
			t.Fatal(err)
		}
		cfg.Processors = 4
		col, err := Run(Collaborative, in, cfg, deme.NewSim(deme.Ideal()))
		if err != nil {
			t.Fatal(err)
		}
		if seq.BestDistance() < col.BestDistance() {
			seqBetter++
		} else {
			colBetter++
		}
	}
	if colBetter < seqBetter {
		t.Errorf("collaborative won %d/3 seeds against sequential", colBetter)
	}
}

func TestCombinedLayout(t *testing.T) {
	masters, island := combinedLayout(7, 2)
	if len(masters) != 2 || masters[0] != 0 || masters[1] != 3 {
		t.Fatalf("masters = %v", masters)
	}
	want := []int{0, 0, 0, 1, 1, 1, 1} // last island absorbs the remainder
	for id, k := range island {
		if k != want[id] {
			t.Fatalf("island map %v, want %v", island, want)
		}
	}
	workers := islandWorkers(3, masters, island, 7)
	if len(workers) != 3 || workers[0] != 4 || workers[2] != 6 {
		t.Fatalf("island workers = %v", workers)
	}
	peers := others(masters, 0)
	if len(peers) != 1 || peers[0] != 3 {
		t.Fatalf("peers = %v", peers)
	}
}
