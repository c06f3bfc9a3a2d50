package solution

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/vrptw"
)

// testInstance builds a small deterministic instance.
func testInstance(t testing.TB) *vrptw.Instance {
	t.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 12, Seed: 77, Vehicles: 6, Capacity: 5000})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// roundRobin assigns customers 1..N to k routes in order.
func roundRobin(n, k int) [][]int {
	routes := make([][]int, k)
	for c := 1; c <= n; c++ {
		routes[(c-1)%k] = append(routes[(c-1)%k], c)
	}
	return routes
}

func TestObjectivesDominance(t *testing.T) {
	a := Objectives{Distance: 10, Vehicles: 2, Tardiness: 0}
	cases := []struct {
		name         string
		b            Objectives
		aDomB, bDomA bool
		aWeak        bool
	}{
		{"identical", Objectives{10, 2, 0}, false, false, true},
		{"b worse in one", Objectives{11, 2, 0}, true, false, true},
		{"b better in one", Objectives{9, 2, 0}, false, true, false},
		{"trade-off", Objectives{9, 3, 0}, false, false, false},
		{"b worse everywhere", Objectives{11, 3, 5}, true, false, true},
	}
	for _, tc := range cases {
		if got := a.Dominates(tc.b); got != tc.aDomB {
			t.Errorf("%s: a.Dominates(b) = %v, want %v", tc.name, got, tc.aDomB)
		}
		if got := tc.b.Dominates(a); got != tc.bDomA {
			t.Errorf("%s: b.Dominates(a) = %v, want %v", tc.name, got, tc.bDomA)
		}
		if got := a.WeaklyDominates(tc.b); got != tc.aWeak {
			t.Errorf("%s: a.WeaklyDominates(b) = %v, want %v", tc.name, got, tc.aWeak)
		}
	}
}

func TestDominanceIrreflexiveAntisymmetric(t *testing.T) {
	f := func(d1, d2, t1, t2 float64, v1, v2 uint8) bool {
		a := Objectives{math.Abs(d1), float64(v1), math.Abs(t1)}
		b := Objectives{math.Abs(d2), float64(v2), math.Abs(t2)}
		if a.Dominates(a) || b.Dominates(b) {
			return false
		}
		return !(a.Dominates(b) && b.Dominates(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFeasible(t *testing.T) {
	if !(Objectives{Tardiness: 0}).Feasible() {
		t.Error("zero tardiness should be feasible")
	}
	if (Objectives{Tardiness: 0.5}).Feasible() {
		t.Error("positive tardiness should be infeasible")
	}
}

func TestRouteMetricsManual(t *testing.T) {
	// Hand-checkable geometry: depot at (0,0), customers on the x axis.
	sites := []vrptw.Site{
		{ID: 0, X: 0, Y: 0, Ready: 0, Due: 100},
		{ID: 1, X: 10, Y: 0, Demand: 5, Ready: 0, Due: 100, Service: 2},
		{ID: 2, X: 20, Y: 0, Demand: 7, Ready: 30, Due: 35, Service: 2},
	}
	in, err := vrptw.New("line", sites, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	dist, tard, load := RouteMetrics(in, []int{1, 2})
	// travel: 10 + 10 + 20 = 40
	if math.Abs(dist-40) > 1e-9 {
		t.Errorf("dist = %g, want 40", dist)
	}
	// arrive c1 at 10 (on time), service till 12, arrive c2 at 22,
	// wait till 30, service till 32, back at depot at 52 < 100: no tardiness
	if tard != 0 {
		t.Errorf("tard = %g, want 0", tard)
	}
	if load != 12 {
		t.Errorf("load = %g, want 12", load)
	}

	// Reverse order: arrive c2 at 20, wait to 30, leave 32, arrive c1 at 42,
	// leave 44, depot at 54. Still feasible.
	_, tard, _ = RouteMetrics(in, []int{2, 1})
	if tard != 0 {
		t.Errorf("reverse tard = %g, want 0", tard)
	}

	// Tighten c2's window so it is violated: due 15, arrive at 22 -> 7 late.
	sites[2].Ready, sites[2].Due = 0, 15
	in2, err := vrptw.New("line2", sites, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	_, tard, _ = RouteMetrics(in2, []int{1, 2})
	if math.Abs(tard-7) > 1e-9 {
		t.Errorf("tard = %g, want 7", tard)
	}
}

func TestRouteMetricsLateDepotReturn(t *testing.T) {
	sites := []vrptw.Site{
		{ID: 0, X: 0, Y: 0, Ready: 0, Due: 25},
		{ID: 1, X: 10, Y: 0, Demand: 5, Ready: 0, Due: 100, Service: 10},
	}
	in, err := vrptw.New("late", sites, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	// out 10 + service 10 + back 10 = 30 > 25: 5 tardy at depot
	_, tard, _ := RouteMetrics(in, []int{1})
	if math.Abs(tard-5) > 1e-9 {
		t.Errorf("depot tardiness = %g, want 5", tard)
	}
}

func TestRouteMetricsDepartsAtDepotReady(t *testing.T) {
	sites := []vrptw.Site{
		{ID: 0, X: 0, Y: 0, Ready: 50, Due: 200},
		{ID: 1, X: 10, Y: 0, Demand: 5, Ready: 0, Due: 55, Service: 0},
	}
	in, err := vrptw.New("ready", sites, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	// departure at 50, arrival at 60 > due 55 -> 5 tardy
	_, tard, _ := RouteMetrics(in, []int{1})
	if math.Abs(tard-5) > 1e-9 {
		t.Errorf("tardiness = %g, want 5", tard)
	}
}

func TestRouteMetricsEmpty(t *testing.T) {
	in := testInstance(t)
	d, tr, l := RouteMetrics(in, nil)
	if d != 0 || tr != 0 || l != 0 {
		t.Errorf("empty route metrics = %g,%g,%g, want zeros", d, tr, l)
	}
}

func TestScheduleConsistentWithMetrics(t *testing.T) {
	in := testInstance(t)
	route := []int{3, 1, 7, 9}
	starts, arrival := Schedule(in, route)
	if len(starts) != len(route) {
		t.Fatalf("Schedule returned %d starts", len(starts))
	}
	var tard float64
	for i, c := range route {
		if starts[i] < in.Sites[c].Ready-1e-9 {
			t.Errorf("service at %d starts before ready time", c)
		}
		if late := starts[i] - in.Sites[c].Due; late > 0 {
			tard += late
		}
	}
	if late := arrival - in.Horizon(); late > 0 {
		tard += late
	}
	_, wantTard, _ := RouteMetrics(in, route)
	if math.Abs(tard-wantTard) > 1e-9 {
		t.Errorf("schedule tardiness %g != metrics tardiness %g", tard, wantTard)
	}
}

func TestNewDropsEmptyRoutesAndEvaluates(t *testing.T) {
	in := testInstance(t)
	routes := [][]int{{1, 2, 3}, nil, {4, 5, 6, 7, 8}, {}, {9, 10, 11, 12}}
	s := New(in, routes)
	if len(s.Routes) != 3 {
		t.Fatalf("got %d routes, want 3", len(s.Routes))
	}
	if s.Obj.Vehicles != 3 {
		t.Errorf("vehicles = %g, want 3", s.Obj.Vehicles)
	}
	if err := Validate(in, s); err != nil {
		t.Fatal(err)
	}
}

func TestWithRoutesIncremental(t *testing.T) {
	in := testInstance(t)
	s := New(in, roundRobin(in.N(), 4))
	if err := Validate(in, s); err != nil {
		t.Fatal(err)
	}
	// Move the first customer of route 0 to the end of route 1.
	r0 := append([]int(nil), s.Routes[0][1:]...)
	r1 := append(append([]int(nil), s.Routes[1]...), s.Routes[0][0])
	mod := s.WithRoutes(in, []int{0, 1}, [][]int{r0, r1})
	if err := Validate(in, mod); err != nil {
		t.Fatalf("incremental result invalid: %v", err)
	}
	// The untouched routes must be shared, not copied.
	if &mod.Routes[2][0] != &s.Routes[2][0] {
		t.Error("untouched route was copied")
	}
	// Original must be unchanged.
	if err := Validate(in, s); err != nil {
		t.Fatalf("original corrupted: %v", err)
	}
	// Removing a route compacts.
	empty := s.WithRoutes(in, []int{0, 1}, [][]int{nil, append(append([]int(nil), s.Routes[1]...), s.Routes[0]...)})
	if len(empty.Routes) != 3 {
		t.Fatalf("after removal got %d routes, want 3", len(empty.Routes))
	}
	if err := Validate(in, empty); err != nil {
		t.Fatal(err)
	}
	if empty.Obj.Vehicles != 3 {
		t.Errorf("vehicles = %g, want 3", empty.Obj.Vehicles)
	}
}

func TestWithRoutesMatchesFullEvaluation(t *testing.T) {
	in := testInstance(t)
	r := rng.New(5)
	s := New(in, roundRobin(in.N(), 4))
	for step := 0; step < 200; step++ {
		// Random relocate between two random routes via WithRoutes.
		if len(s.Routes) < 2 {
			break
		}
		from := r.Intn(len(s.Routes))
		to := r.Intn(len(s.Routes))
		if from == to {
			continue
		}
		fi := r.Intn(len(s.Routes[from]))
		cust := s.Routes[from][fi]
		nf := make([]int, 0, len(s.Routes[from])-1)
		nf = append(nf, s.Routes[from][:fi]...)
		nf = append(nf, s.Routes[from][fi+1:]...)
		nt := make([]int, 0, len(s.Routes[to])+1)
		pos := r.Intn(len(s.Routes[to]) + 1)
		nt = append(nt, s.Routes[to][:pos]...)
		nt = append(nt, cust)
		nt = append(nt, s.Routes[to][pos:]...)
		s = s.WithRoutes(in, []int{from, to}, [][]int{nf, nt})
		full := New(in, s.Routes)
		if !objApprox(s.Obj, full.Obj) {
			t.Fatalf("step %d: incremental obj %+v != full obj %+v", step, s.Obj, full.Obj)
		}
	}
	if err := Validate(in, s); err != nil {
		t.Fatal(err)
	}
}

func objApprox(a, b Objectives) bool {
	return math.Abs(a.Distance-b.Distance) < 1e-6 &&
		a.Vehicles == b.Vehicles &&
		math.Abs(a.Tardiness-b.Tardiness) < 1e-6
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := testInstance(t)
	s := New(in, roundRobin(in.N(), 3))
	perm, err := Encode(in, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(perm) != in.PermLen() {
		t.Fatalf("perm length %d, want %d", len(perm), in.PermLen())
	}
	if perm[0] != 0 || perm[len(perm)-1] != 0 {
		t.Fatal("perm must start and end with 0")
	}
	back, err := Decode(in, perm)
	if err != nil {
		t.Fatal(err)
	}
	if !objApprox(back.Obj, s.Obj) {
		t.Errorf("decoded objectives %+v != original %+v", back.Obj, s.Obj)
	}
	if len(back.Routes) != len(s.Routes) {
		t.Fatalf("route count changed: %d vs %d", len(back.Routes), len(s.Routes))
	}
	for i := range s.Routes {
		for j := range s.Routes[i] {
			if back.Routes[i][j] != s.Routes[i][j] {
				t.Fatalf("route %d differs after round trip", i)
			}
		}
	}
}

func TestEncodeTooManyRoutes(t *testing.T) {
	in := testInstance(t) // 6 vehicles
	routes := make([][]int, in.N())
	for c := 1; c <= in.N(); c++ {
		routes[c-1] = []int{c}
	}
	s := New(in, routes) // 12 routes > 6 vehicles
	if _, err := Encode(in, s); err == nil {
		t.Fatal("Encode accepted more routes than vehicles")
	}
}

func TestDecodeRejectsInvalid(t *testing.T) {
	in := testInstance(t) // N=12, R=6, L=19
	valid, err := Encode(in, New(in, roundRobin(in.N(), 3)))
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(p []int)) []int {
		p := append([]int(nil), valid...)
		f(p)
		return p
	}
	cases := map[string][]int{
		"wrong length": valid[:len(valid)-1],
		"no leading 0": mut(func(p []int) { p[0], p[1] = p[1], p[0] }),
		"duplicate":    mut(func(p []int) { p[2] = p[1] }),
		"out of range": mut(func(p []int) { p[1] = in.N() + 5 }),
		"negative":     mut(func(p []int) { p[1] = -1 }),
	}
	for name, p := range cases {
		if _, err := Decode(in, p); err == nil {
			t.Errorf("%s: Decode accepted invalid permutation", name)
		}
	}
}

// TestCheckRoutes pins the check foreign routes pass before New builds
// them: exactly what New needs, and no fleet bound.
func TestCheckRoutes(t *testing.T) {
	in := testInstance(t) // N=12, R=6
	if err := CheckRoutes(in, roundRobin(in.N(), 3)); err != nil {
		t.Fatalf("valid routes refused: %v", err)
	}
	if err := CheckRoutes(in, roundRobin(in.N(), in.N())); err != nil {
		t.Errorf("12 routes on a 6-vehicle fleet refused: %v", err)
	}
	bad := map[string][][]int{
		"none":         nil,
		"empty route":  append(roundRobin(in.N(), 3), []int{}),
		"depot":        {{0, 1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}},
		"past N":       {{1, 2, 3, 4, 5, 6, 13}, {7, 8, 9, 10, 11, 12}},
		"negative":     {{1, 2, 3, 4, 5, 6, -1}, {7, 8, 9, 10, 11, 12}},
		"twice":        {{1, 2, 3, 4, 5, 6, 7}, {7, 8, 9, 10, 11, 12}},
		"one left out": {{1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11}},
	}
	for name, routes := range bad {
		if CheckRoutes(in, routes) == nil {
			t.Errorf("%s: CheckRoutes accepted %v", name, routes)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	in := testInstance(t)
	s := New(in, roundRobin(in.N(), 3))
	bad := s.Clone()
	bad.Obj.Distance += 10
	if Validate(in, bad) == nil {
		t.Error("Validate missed corrupted objective")
	}
	bad2 := s.Clone()
	bad2.Dist[0] += 1
	if Validate(in, bad2) == nil {
		t.Error("Validate missed corrupted route cache")
	}
	bad3 := New(in, roundRobin(in.N()-1, 3)) // customer 12 missing
	if Validate(in, bad3) == nil {
		t.Error("Validate missed missing customer")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	in := testInstance(t)
	s := New(in, roundRobin(in.N(), 3))
	c := s.Clone()
	c.Dist[0] = -1
	c.Routes[0] = []int{1}
	if s.Dist[0] == -1 {
		t.Error("Clone shares cache slice")
	}
	if len(s.Routes[0]) == 1 {
		t.Error("Clone shares route list")
	}
}

func TestVehiclesDistanceCorrelation(t *testing.T) {
	// In Euclidean space, merging two routes never increases distance
	// (triangle inequality) — the paper's §II.A argument that minimizing
	// distance also tends to minimize vehicles.
	in := testInstance(t)
	s := New(in, roundRobin(in.N(), 4))
	merged := append(append([]int(nil), s.Routes[0]...), s.Routes[1]...)
	m := s.WithRoutes(in, []int{0, 1}, [][]int{merged, nil})
	if m.Obj.Distance > s.Obj.Distance+1e-9 {
		t.Errorf("merging routes increased distance: %g -> %g", s.Obj.Distance, m.Obj.Distance)
	}
	if m.Obj.Vehicles != s.Obj.Vehicles-1 {
		t.Errorf("merge should reduce vehicles by one")
	}
}

func BenchmarkRouteMetrics(b *testing.B) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R2, N: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	route := make([]int, 50)
	for i := range route {
		route[i] = i + 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RouteMetrics(in, route)
	}
}

func BenchmarkWithRoutesVsFull(b *testing.B) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := New(in, roundRobin(in.N(), 40))
	r0 := append([]int(nil), s.Routes[0][1:]...)
	r1 := append(append([]int(nil), s.Routes[1]...), s.Routes[0][0])
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.WithRoutes(in, []int{0, 1}, [][]int{r0, r1})
		}
	})
	b.Run("full", func(b *testing.B) {
		routes := append([][]int(nil), s.Routes...)
		routes[0], routes[1] = r0, r1
		for i := 0; i < b.N; i++ {
			New(in, routes)
		}
	})
}
