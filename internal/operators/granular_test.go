package operators

import (
	"math"
	"testing"

	"repro/internal/construct"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// TestGranularMovesValidSubset is the granular ⊆ full property: every move
// a granular sweep proposes must be a valid full-neighborhood move — it
// applies to a solution that still validates and its delta objectives
// equal the materialized objectives. Moves from the granular proposal
// paths must additionally create at least one arc of the sparse k-nearest
// graph; the sweep itself may also contain full-path fallback moves, which
// TestGranularProposalsInSparseGraph excludes by driving the proposers
// directly.
func TestGranularMovesValidSubset(t *testing.T) {
	for _, k := range []int{3, 10, 25} {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 80, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		nl := in.NeighborLists(k)
		s := greedyFill(in)
		g := NewGenerator(in, nil)
		g.Granular = nl
		r := rng.New(7)
		var buf CandidateBuffer
		for sweep := 0; sweep < 5; sweep++ {
			g.CandidatesInto(&buf, s, r, 120)
			if len(buf.Data) == 0 {
				t.Fatalf("k=%d sweep %d: no granular candidates", k, sweep)
			}
			for i, d := range buf.Data {
				applied := d.Apply(in, s)
				if err := solution.Validate(in, applied); err != nil {
					t.Fatalf("k=%d sweep %d move %d (%s): invalid after apply: %v",
						k, sweep, i, d.Kind, err)
				}
				w := applied.Obj
				got := buf.Objs[i]
				if math.Abs(got.Distance-w.Distance) > deltaTol ||
					got.Vehicles != w.Vehicles ||
					math.Abs(got.Tardiness-w.Tardiness) > deltaTol {
					t.Fatalf("k=%d sweep %d move %d (%s): delta obj %+v != materialized %+v",
						k, sweep, i, d.Kind, got, w)
				}
			}
			// Walk the search forward so later sweeps see other solutions.
			s = buf.Data[0].Apply(in, s)
		}
	}
}

// TestGranularProposalsInSparseGraph drives every operator's granular
// proposal path directly and asserts the defining restriction: each
// proposed move creates at least one arc of the sparse k-nearest graph.
func TestGranularProposalsInSparseGraph(t *testing.T) {
	for _, k := range []int{3, 10, 25} {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 80, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		nl := in.NeighborLists(k)
		inList := func(i, j int) bool {
			for _, m := range nl.Of(i) {
				if int(m) == j {
					return true
				}
			}
			return false
		}
		s := greedyFill(in)
		px := &PosIndex{}
		px.Reset(in, s)
		r := rng.New(13)
		before := arcSet(s)
		for _, op := range All() {
			proposed := 0
			for try := 0; try < 200; try++ {
				d, ok := op.proposeGranular(in, s, px, nl, r)
				if !ok {
					continue
				}
				proposed++
				applied := d.Apply(in, s)
				if err := solution.Validate(in, applied); err != nil {
					t.Fatalf("k=%d %s: invalid granular move: %v", k, op, err)
				}
				created := false
				for arc := range arcSet(applied) {
					if !before[arc] && inList(arc[0], arc[1]) {
						created = true
						break
					}
				}
				if !created {
					t.Fatalf("k=%d %s: granular move %+v creates no sparse-graph arc", k, op, d)
				}
			}
			if k >= 10 && proposed == 0 {
				t.Errorf("k=%d %s: granular path proposed nothing in 200 tries", k, op)
			}
		}
	}
}

// TestGranularSweepDeterministic pins the granular engine's determinism:
// the same seed yields the same move sequence, and re-running on the same
// solution with a fresh buffer yields identical data and objectives.
func TestGranularSweepDeterministic(t *testing.T) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := greedyFill(in)
	run := func() ([]MoveData, []solution.Objectives) {
		g := NewGenerator(in, nil)
		g.Granular = in.NeighborLists(10)
		var buf CandidateBuffer
		g.CandidatesInto(&buf, s, rng.New(11), 150)
		return append([]MoveData(nil), buf.Data...), append([]solution.Objectives(nil), buf.Objs...)
	}
	d1, o1 := run()
	d2, o2 := run()
	if len(d1) != len(d2) {
		t.Fatalf("sweep lengths differ: %d vs %d", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] || o1[i] != o2[i] {
			t.Fatalf("sweep diverges at %d: %+v/%+v vs %+v/%+v", i, d1[i], o1[i], d2[i], o2[i])
		}
	}
}

// TestCandidatesZeroAlloc is the zero-alloc gate of the candidate engine:
// after warm-up, a full CandidatesInto sweep — full or granular — must not
// touch the heap. testing.AllocsPerRun runs the function once before
// measuring, which absorbs the buffer growth of the first sweep.
func TestCandidatesZeroAlloc(t *testing.T) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := greedyFill(in)
	for _, tc := range []struct {
		name string
		k    int
	}{{"full", 0}, {"granular", 15}} {
		g := NewGenerator(in, nil)
		if tc.k > 0 {
			g.Granular = in.NeighborLists(tc.k)
		}
		r := rng.New(3)
		var buf CandidateBuffer
		if avg := testing.AllocsPerRun(50, func() {
			g.CandidatesInto(&buf, s, r, 200)
		}); avg != 0 {
			t.Errorf("%s: CandidatesInto allocates %.1f objects per sweep, want 0", tc.name, avg)
		}
	}
}

// benchSweep builds the 400-customer sweep fixture shared by the *400
// benchmarks: the paper's 200-move neighborhood on an R1 instance of 400
// customers.
func benchSweep(b *testing.B, granularK int) (*Generator, *solution.Solution, *rng.Rand) {
	b.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := greedyFill(in)
	g := NewGenerator(in, nil)
	if granularK > 0 {
		g.Granular = in.NeighborLists(granularK)
	}
	return g, s, rng.New(1)
}

// BenchmarkCandidatesInto400 measures the zero-alloc full-neighborhood
// sweep into a reused buffer on the 400-customer instance.
func BenchmarkCandidatesInto400(b *testing.B) {
	g, s, r := benchSweep(b, 0)
	var buf CandidateBuffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CandidatesInto(&buf, s, r, 200)
	}
}

// BenchmarkCandidatesGranular400 measures the granular zero-alloc sweep on
// the 400-customer instance — the proposal side of the searcher's <=150µs
// iteration budget.
func BenchmarkCandidatesGranular400(b *testing.B) {
	g, s, r := benchSweep(b, 20)
	var buf CandidateBuffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.CandidatesInto(&buf, s, r, 200)
	}
}

// searchedSolution returns a solution of in after a short descent like a
// search's: from a seeded I1 construction, 400 granular 200-move sweeps,
// each applying the first front move that dominates the current solution,
// or else the front's first move.
func searchedSolution(in *vrptw.Instance, nl *vrptw.NeighborLists) *solution.Solution {
	s := construct.I1(in, construct.RandomParams(rng.New(7)))
	g := NewGenerator(in, nil)
	g.Granular = nl
	r := rng.New(9)
	var buf CandidateBuffer
	for it := 0; it < 400; it++ {
		g.CandidatesInto(&buf, s, r, 200)
		if len(buf.Front) == 0 {
			break
		}
		pick := buf.Front[0]
		for _, i := range buf.Front {
			if buf.Objs[i].Dominates(s.Obj) {
				pick = i
				break
			}
		}
		s = buf.Data[pick].Apply(in, s)
	}
	return s
}

// BenchmarkProposeGranular400 times one granular draw of each of the
// paper's operators on a searched solution of an R1 instance of 400
// customers with k=20 lists: the proposal side of a searcher's iteration,
// its critical path once evaluation overlaps proposal.
func BenchmarkProposeGranular400(b *testing.B) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	nl := in.NeighborLists(20)
	s := searchedSolution(in, nl)
	for _, k := range All() {
		b.Run(k.String(), func(b *testing.B) {
			var px PosIndex
			px.Reset(in, s)
			r := rng.New(1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.proposeGranular(in, s, &px, nl, r)
			}
		})
	}
}
