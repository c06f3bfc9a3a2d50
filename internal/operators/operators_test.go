package operators

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

func genInstance(t testing.TB, class vrptw.Class, n int, seed uint64) *vrptw.Instance {
	t.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: class, N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// greedyFill builds a capacity-feasible starting solution by filling routes
// with customers in ID order.
func greedyFill(in *vrptw.Instance) *solution.Solution {
	var routes [][]int
	var cur []int
	var load float64
	for c := 1; c <= in.N(); c++ {
		d := in.Sites[c].Demand
		if load+d > in.Capacity {
			routes = append(routes, cur)
			cur, load = nil, 0
		}
		cur = append(cur, c)
		load += d
	}
	if len(cur) > 0 {
		routes = append(routes, cur)
	}
	return solution.New(in, routes)
}

func TestAllOperatorsPreserveInvariants(t *testing.T) {
	in := genInstance(t, vrptw.R1, 40, 11)
	s := greedyFill(in)
	r := rng.New(1)
	for _, op := range All() {
		applied := 0
		for try := 0; try < 300; try++ {
			m, ok := op.Propose(in, s, r)
			if !ok {
				continue
			}
			next := m.Apply(in, s)
			if err := solution.Validate(in, next); err != nil {
				t.Fatalf("%s: invalid solution after %v: %v", op, m, err)
			}
			// Operator design guarantees capacity feasibility.
			for i, l := range next.Load {
				if l > in.Capacity {
					t.Fatalf("%s: route %d load %g > capacity", op, i, l)
				}
			}
			applied++
			s = next
		}
		if applied == 0 {
			t.Errorf("%s: no feasible move found in 300 tries", op)
		}
	}
}

func TestMovesProduceDifferentSolutions(t *testing.T) {
	in := genInstance(t, vrptw.RC1, 30, 5)
	s := greedyFill(in)
	r := rng.New(9)
	for _, op := range All() {
		for try := 0; try < 100; try++ {
			m, ok := op.Propose(in, s, r)
			if !ok {
				continue
			}
			next := m.Apply(in, s)
			if sameRoutes(s, next) {
				t.Fatalf("%s: %v produced an identical solution", op, m)
			}
		}
	}
}

func sameRoutes(a, b *solution.Solution) bool {
	if len(a.Routes) != len(b.Routes) {
		return false
	}
	used := make([]bool, len(b.Routes))
	for _, ra := range a.Routes {
		found := false
		for j, rb := range b.Routes {
			if used[j] || len(ra) != len(rb) {
				continue
			}
			equal := true
			for k := range ra {
				if ra[k] != rb[k] {
					equal = false
					break
				}
			}
			if equal {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestApplyDoesNotMutateOriginal(t *testing.T) {
	in := genInstance(t, vrptw.R1, 25, 3)
	s := greedyFill(in)
	snapshot := make([][]int, len(s.Routes))
	for i, r := range s.Routes {
		snapshot[i] = append([]int(nil), r...)
	}
	r := rng.New(4)
	for _, op := range All() {
		for try := 0; try < 50; try++ {
			if m, ok := op.Propose(in, s, r); ok {
				m.Apply(in, s)
			}
		}
	}
	if err := solution.Validate(in, s); err != nil {
		t.Fatalf("original solution corrupted: %v", err)
	}
	for i, r := range s.Routes {
		for j := range r {
			if r[j] != snapshot[i][j] {
				t.Fatal("route contents mutated in place")
			}
		}
	}
}

func TestRelocateCanEmptyRoute(t *testing.T) {
	in := genInstance(t, vrptw.R2, 10, 7) // large capacity: everything fits anywhere
	// One singleton route plus one big route.
	routes := [][]int{{1}, {2, 3, 4, 5, 6, 7, 8, 9, 10}}
	s := solution.New(in, routes)
	r := rng.New(2)
	var reduced bool
	for try := 0; try < 500 && !reduced; try++ {
		m, ok := KindRelocate.Propose(in, s, r)
		if !ok {
			continue
		}
		next := m.Apply(in, s)
		if len(next.Routes) == 1 {
			reduced = true
			if next.Obj.Vehicles != 1 {
				t.Fatalf("vehicles = %g after emptying route", next.Obj.Vehicles)
			}
		}
	}
	if !reduced {
		t.Error("relocate never emptied the singleton route")
	}
}

func TestTwoOptStarCanMergeRoutes(t *testing.T) {
	in := genInstance(t, vrptw.R2, 10, 7)
	s := solution.New(in, [][]int{{1, 2, 3, 4, 5}, {6, 7, 8, 9, 10}})
	r := rng.New(6)
	var merged bool
	for try := 0; try < 1000 && !merged; try++ {
		m, ok := KindTwoOptStar.Propose(in, s, r)
		if !ok {
			continue
		}
		if next := m.Apply(in, s); len(next.Routes) == 1 {
			merged = true
		}
	}
	if !merged {
		t.Error("2-opt* never merged the two routes")
	}
}

func TestOperatorsRespectCapacity(t *testing.T) {
	// Tight capacity: each route can hold exactly its current load.
	sites := []vrptw.Site{
		{ID: 0, X: 0, Y: 0, Ready: 0, Due: 10000},
	}
	for c := 1; c <= 8; c++ {
		sites = append(sites, vrptw.Site{ID: c, X: float64(c), Y: 0, Demand: 10, Ready: 0, Due: 10000, Service: 1})
	}
	in, err := vrptw.New("tight", sites, 4, 20)
	if err != nil {
		t.Fatal(err)
	}
	s := solution.New(in, [][]int{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	r := rng.New(8)
	// Relocate and 2-opt* would overload a route; Exchange keeps loads
	// equal and must still be proposable.
	if _, ok := KindRelocate.Propose(in, s, r); ok {
		t.Error("relocate proposed a capacity-violating move")
	}
	found := false
	for try := 0; try < 50; try++ {
		if _, ok := KindExchange.Propose(in, s, r); ok {
			found = true
			break
		}
	}
	if !found {
		t.Error("exchange found no move despite equal demands")
	}
}

func TestLocalFeasibilityCriterion(t *testing.T) {
	// Customer 2's window closes before anyone can reach it from
	// customer 1 — the arc 1->2 must never be created. Layout: depot 0,
	// customers at x=10 and x=20; depart(1)+d(1,2) = 1+10 = 11 > due(2)=10.
	sites := []vrptw.Site{
		{ID: 0, X: 0, Y: 0, Ready: 0, Due: 1000},
		{ID: 1, X: 10, Y: 0, Demand: 1, Ready: 0, Due: 1000, Service: 1},
		{ID: 2, X: 20, Y: 0, Demand: 1, Ready: 0, Due: 10, Service: 1},
		{ID: 3, X: 30, Y: 0, Demand: 1, Ready: 0, Due: 1000, Service: 1},
	}
	in, err := vrptw.New("feas", sites, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if refArcOK(in, 1, 2) {
		t.Fatal("test setup wrong: arc 1->2 should violate the criterion")
	}
	s := solution.New(in, [][]int{{1}, {2}, {3}})
	r := rng.New(3)
	for _, op := range All() {
		for try := 0; try < 400; try++ {
			m, ok := op.Propose(in, s, r)
			if !ok {
				continue
			}
			next := m.Apply(in, s)
			for _, route := range next.Routes {
				for k := 0; k+1 < len(route); k++ {
					if route[k] == 1 && route[k+1] == 2 {
						t.Fatalf("%s created forbidden arc 1->2", op)
					}
				}
			}
		}
	}
}

func TestGeneratorNeighborhoodSize(t *testing.T) {
	in := genInstance(t, vrptw.R1, 50, 13)
	s := greedyFill(in)
	g := NewGenerator(in, nil)
	var buf CandidateBuffer
	g.CandidatesInto(&buf, s, rng.New(5), 40)
	if len(buf.Data) != 40 || len(buf.Objs) != 40 {
		t.Fatalf("neighborhood size %d moves / %d objectives, want 40", len(buf.Data), len(buf.Objs))
	}
	for i, d := range buf.Data {
		if err := solution.Validate(in, d.Apply(in, s)); err != nil {
			t.Fatalf("neighbor %d invalid: %v", i, err)
		}
	}
}

func TestGeneratorFailureBudget(t *testing.T) {
	// A one-customer instance has no feasible moves for any operator.
	sites := []vrptw.Site{
		{ID: 0, X: 0, Y: 0, Ready: 0, Due: 100},
		{ID: 1, X: 1, Y: 0, Demand: 1, Ready: 0, Due: 100, Service: 1},
	}
	in, err := vrptw.New("one", sites, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	s := solution.New(in, [][]int{{1}})
	g := NewGenerator(in, nil)
	var buf CandidateBuffer
	g.CandidatesInto(&buf, s, rng.New(1), 10)
	if len(buf.Data) != 0 || len(buf.Objs) != 0 {
		t.Fatalf("expected empty neighborhood, got %d", len(buf.Data))
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	in := genInstance(t, vrptw.C1, 40, 17)
	s := greedyFill(in)
	g := NewGenerator(in, nil)
	var a, b CandidateBuffer
	g.CandidatesInto(&a, s, rng.New(42), 30)
	g.CandidatesInto(&b, s, rng.New(42), 30)
	if len(a.Data) != len(b.Data) {
		t.Fatalf("sizes differ: %d vs %d", len(a.Data), len(b.Data))
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] || a.Objs[i] != b.Objs[i] {
			t.Fatalf("neighbor %d differs between identical seeds", i)
		}
	}
}

func TestAttributesStableAndOperatorSpecific(t *testing.T) {
	in := genInstance(t, vrptw.R1, 30, 19)
	s := greedyFill(in)
	r := rng.New(21)
	seen := map[MoveKind]map[uint64]bool{}
	for _, op := range All() {
		seen[op] = map[uint64]bool{}
		for try := 0; try < 100; try++ {
			if m, ok := op.Propose(in, s, r); ok {
				if m.Attribute() != m.Attribute() {
					t.Fatalf("%s: unstable attribute", op)
				}
				seen[op][uint64(m.Attribute())] = true
				if m.Kind != op {
					t.Fatalf("move kind %s != %s", m.Kind, op)
				}
			}
		}
		if len(seen[op]) < 2 {
			t.Errorf("%s: all moves share one attribute", op)
		}
	}
}

func TestMovesEvaluateLazily(t *testing.T) {
	in := genInstance(t, vrptw.R1, 40, 23)
	s := greedyFill(in)
	g := NewGenerator(in, nil)
	var buf CandidateBuffer
	g.MovesInto(&buf, s, rng.New(2), 25)
	if len(buf.Data) != 25 {
		t.Fatalf("got %d moves, want 25", len(buf.Data))
	}
	for _, m := range buf.Data {
		next := m.Apply(in, s)
		if err := solution.Validate(in, next); err != nil {
			t.Fatalf("deferred apply invalid: %v", err)
		}
	}
}

func TestOperatorChainProperty(t *testing.T) {
	// Long random walks through all operators keep every invariant.
	f := func(seed uint64) bool {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.Class(seed % 6), N: 25, Seed: seed})
		if err != nil {
			return false
		}
		s := greedyFill(in)
		r := rng.New(seed)
		ops := All()
		for step := 0; step < 150; step++ {
			op := ops[r.Intn(len(ops))]
			m, ok := op.Propose(in, s, r)
			if !ok {
				continue
			}
			s = m.Apply(in, s)
			if solution.Validate(in, s) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkProposeByOperator(b *testing.B) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := greedyFill(in)
	for _, op := range All() {
		b.Run(op.String(), func(b *testing.B) {
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				op.Propose(in, s, r)
			}
		})
	}
}

// TestOperatorKinds pins the kind-name table behind the telemetry funnel,
// the config fingerprint and the ablation labels: names are unique and
// parse back to their kind, and every operator proposes only moves of its
// own kind.
func TestOperatorKinds(t *testing.T) {
	seen := map[string]bool{}
	for k := KindNone; int(k) < len(kindNames); k++ {
		if seen[k.String()] {
			t.Errorf("kind %d reuses name %q", k, k.String())
		}
		seen[k.String()] = true
		if got := ParseKind(k.String()); got != k {
			t.Errorf("ParseKind(%q) = %d, want %d", k.String(), got, k)
		}
	}
	if got := ParseKind("or-opt-2"); got != KindNone {
		t.Errorf("unknown name parsed as kind %d", got)
	}
	in := genInstance(t, vrptw.RC2, 40, 2)
	s := greedyFill(in)
	r := rng.New(5)
	for _, op := range Extended() {
		for try := 0; try < 50; try++ {
			if m, ok := op.Propose(in, s, r); ok && m.Kind != op {
				t.Fatalf("%s proposed a %s move", op, m.Kind)
			}
		}
	}
}
