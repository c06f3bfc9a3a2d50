package construct

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

func TestI1ProducesValidFeasibleSolutions(t *testing.T) {
	for _, class := range []vrptw.Class{vrptw.R1, vrptw.C1, vrptw.RC1, vrptw.R2, vrptw.C2, vrptw.RC2} {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: class, N: 80, Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		s := I1(in, DefaultParams())
		if err := solution.Validate(in, s); err != nil {
			t.Fatalf("%v: %v", class, err)
		}
		if !s.Obj.Feasible() {
			t.Errorf("%v: I1 produced tardiness %g on a fully serviceable instance", class, s.Obj.Tardiness)
		}
		for i, l := range s.Load {
			if l > in.Capacity {
				t.Errorf("%v: route %d overloaded", class, i)
			}
		}
		if len(s.Routes) < in.MinVehicles() {
			t.Errorf("%v: %d routes below the capacity bound %d", class, len(s.Routes), in.MinVehicles())
		}
	}
}

func TestI1BeatsSingletonRoutes(t *testing.T) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.C1, N: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := I1(in, DefaultParams())
	if len(s.Routes) >= in.N() {
		t.Fatalf("I1 built %d routes for %d customers — no consolidation at all", len(s.Routes), in.N())
	}
	// Distance should beat the trivial out-and-back tour for every customer.
	var naive float64
	for c := 1; c <= in.N(); c++ {
		naive += 2 * in.Dist(0, c)
	}
	if s.Obj.Distance >= naive {
		t.Errorf("I1 distance %g no better than naive %g", s.Obj.Distance, naive)
	}
}

func TestI1Deterministic(t *testing.T) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 50, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{Mu: 0.7, Alpha1: 0.3, Lambda: 1.5, SeedFar: false}
	a := I1(in, p)
	b := I1(in, p)
	if a.Obj != b.Obj {
		t.Fatalf("same params gave different objectives: %+v vs %+v", a.Obj, b.Obj)
	}
	if len(a.Routes) != len(b.Routes) {
		t.Fatalf("route counts differ: %d vs %d", len(a.Routes), len(b.Routes))
	}
	for i := range a.Routes {
		for j := range a.Routes[i] {
			if a.Routes[i][j] != b.Routes[i][j] {
				t.Fatal("routes differ between identical runs")
			}
		}
	}
}

func TestI1SeedRules(t *testing.T) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 40, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	far := I1(in, Params{Mu: 1, Alpha1: 0.5, Lambda: 1, SeedFar: true})
	due := I1(in, Params{Mu: 1, Alpha1: 0.5, Lambda: 1, SeedFar: false})
	if err := solution.Validate(in, far); err != nil {
		t.Fatal(err)
	}
	if err := solution.Validate(in, due); err != nil {
		t.Fatal(err)
	}
	// First seed differs: farthest vs earliest-deadline customer.
	farSeed := pickSeed(in, allUnrouted(in), true)
	dueSeed := pickSeed(in, allUnrouted(in), false)
	for c := 1; c <= in.N(); c++ {
		if in.Dist(0, c) > in.Dist(0, farSeed) {
			t.Errorf("customer %d is farther than the chosen far seed %d", c, farSeed)
		}
		if in.Sites[c].Due < in.Sites[dueSeed].Due {
			t.Errorf("customer %d has earlier deadline than chosen seed %d", c, dueSeed)
		}
	}
}

func allUnrouted(in *vrptw.Instance) []int {
	all := make([]int, 0, in.N())
	for c := 1; c <= in.N(); c++ {
		all = append(all, c)
	}
	return all
}

func TestI1UnreachableCustomerGetsSingletonRoute(t *testing.T) {
	sites := []vrptw.Site{
		{ID: 0, X: 0, Y: 0, Ready: 0, Due: 1000},
		{ID: 1, X: 10, Y: 0, Demand: 1, Ready: 0, Due: 1000, Service: 1},
		{ID: 2, X: 500, Y: 0, Demand: 1, Ready: 0, Due: 5, Service: 1}, // unreachable
		{ID: 3, X: 12, Y: 0, Demand: 1, Ready: 0, Due: 1000, Service: 1},
	}
	in, err := vrptw.New("unreach", sites, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	s := I1(in, DefaultParams())
	if err := solution.Validate(in, s); err != nil {
		t.Fatal(err)
	}
	if s.Obj.Feasible() {
		t.Error("solution should carry tardiness for the unreachable customer")
	}
	// Customer 2 must still be routed (exactly once — Validate checks).
	found := false
	for _, r := range s.Routes {
		for _, c := range r {
			if c == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Error("unreachable customer dropped")
	}
}

func TestRandomParamsRanges(t *testing.T) {
	r := rng.New(4)
	sawFar, sawDue := false, false
	for i := 0; i < 200; i++ {
		p := RandomParams(r)
		if p.Mu < 0 || p.Mu > 1 {
			t.Fatalf("Mu %g out of range", p.Mu)
		}
		if p.Alpha1 < 0 || p.Alpha1 > 1 {
			t.Fatalf("Alpha1 %g out of range", p.Alpha1)
		}
		if p.Lambda < 1 || p.Lambda > 2 {
			t.Fatalf("Lambda %g out of range", p.Lambda)
		}
		if p.SeedFar {
			sawFar = true
		} else {
			sawDue = true
		}
	}
	if !sawFar || !sawDue {
		t.Error("seed rule coin never flipped")
	}
}

func TestI1PropertyValidAcrossParams(t *testing.T) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.RC1, N: 35, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		p := RandomParams(rng.New(seed))
		s := I1(in, p)
		return solution.Validate(in, s) == nil && s.Obj.Feasible()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestScheduleBoundsConsistency(t *testing.T) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 30, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := I1(in, DefaultParams())
	for _, route := range s.Routes {
		starts, latest := scheduleBounds(in, route)
		sched, _ := solution.Schedule(in, route)
		for k := range route {
			if starts[k] != sched[k] {
				t.Fatalf("forward pass start %g != Schedule %g", starts[k], sched[k])
			}
			// On a feasible route, actual starts never exceed the
			// latest allowable starts.
			if starts[k] > latest[k]+1e-9 {
				t.Fatalf("start %g after latest %g on feasible route", starts[k], latest[k])
			}
		}
	}
}

// BenchmarkI1 measures one I1 construction on the benchmark's instance
// shape, R1 with 400 customers, under fixed parameters.
func BenchmarkI1(b *testing.B) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p := Params{Mu: 0.5, Alpha1: 0.5, Lambda: 1.5, SeedFar: true}
	b.ReportAllocs()
	for b.Loop() {
		I1(in, p)
	}
}
