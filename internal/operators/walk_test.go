package operators

import (
	"testing"

	"repro/internal/construct"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// This file checks the state a CandidateBuffer carries from one current
// solution to the next — the customer table's kept records and the slot
// memos of relocate and exchange — along walks like a search's: applied
// moves, an emptied route, a restart and a derived instance.

// walkListLengths are the granular list lengths a walk draws from: one
// slot, the benchmark's k, one short of a mask word, one word, one word
// and one slot, and every customer.
func walkListLengths(in *vrptw.Instance) []int { return []int{1, 20, 63, 64, 65, in.N()} }

// searchWalk calls visit on each solution of a walk like a search's and
// steps on by applying one of the moves visit returns, drawn with wr (the
// walk's RNG, which visit may draw from too). The walk applies random
// moves; then relocates, one by one, the customers of the shortest route
// ahead of the last two into the last route, so the emptied route's
// successors shift down; then jumps to an unrelated I1 solution, as a
// restart does; and then goes on on the instance RemoveSite and AddSite
// derive. A stretch of random moves ends early where visit returns none.
func searchWalk(t *testing.T, class, n, seed, walk uint64, visit func(in *vrptw.Instance, s *solution.Solution, wr *rng.Rand) []MoveData) {
	t.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.Class(class % 6), N: int(3 + n%120), Seed: seed})
	if err != nil {
		t.Skip(err)
	}
	wr := rng.New(walk)
	stroll := func(s *solution.Solution, steps int) *solution.Solution {
		moves := visit(in, s, wr)
		for i := 0; i < steps && len(moves) > 0; i++ {
			s = moves[wr.Intn(len(moves))].Apply(in, s)
			moves = visit(in, s, wr)
		}
		return s
	}

	s := stroll(construct.I1(in, construct.RandomParams(wr)), 2+int(walk%4))

	if last := len(s.Routes) - 1; last >= 1 {
		victim := 0
		for ri := 1; ri < max(last-1, 1); ri++ {
			if len(s.Routes[ri]) < len(s.Routes[victim]) {
				victim = ri
			}
		}
		for emptied := false; !emptied; {
			emptied = len(s.Routes[victim]) == 1
			to := len(s.Routes) - 1
			m := MoveData{Kind: KindRelocate, A: int32(victim), B: 0, C: int32(to), D: int32(len(s.Routes[to])), E: int32(s.Routes[victim][0])}
			s = m.Apply(in, s)
			visit(in, s, wr)
		}
	}

	s = stroll(construct.I1(in, construct.RandomParams(wr)), 2)

	removed := 1 + wr.Intn(in.N())
	in2, err := in.RemoveSite(removed)
	if err != nil {
		t.Fatal(err)
	}
	site := in2.Sites[1+wr.Intn(in2.N())]
	site.ID = 0
	in3, err := in2.AddSite(site)
	if err != nil {
		t.Fatal(err)
	}
	var routes [][]int
	for _, route := range s.Routes {
		var nr []int
		for _, c := range route {
			switch {
			case c < removed:
				nr = append(nr, c)
			case c > removed:
				nr = append(nr, c-1)
			}
		}
		routes = append(routes, nr)
	}
	routes = append(routes, []int{in3.N()})
	in = in3
	stroll(solution.New(in, routes), 3)
}

// granularWalk carries one CandidateBuffer along a searchWalk and calls
// visit on each solution once the buffer's customer table is bound to it
// by a granular sweep of the walk's RNG, as a search iteration binds it;
// the walk steps on by the sweep's moves, and after the instance changes
// a new Generator sweeps into the same buffer. Every two solutions the
// sweep's lists change length, so the slot memos carry tags across
// solutions under one list and are rebound to the next.
func granularWalk(t *testing.T, class, n, seed, walk uint64, visit func(in *vrptw.Instance, s *solution.Solution, nl *vrptw.NeighborLists, buf *CandidateBuffer)) {
	t.Helper()
	var g *Generator
	var buf CandidateBuffer
	bound := 0
	searchWalk(t, class, n, seed, walk, func(in *vrptw.Instance, s *solution.Solution, wr *rng.Rand) []MoveData {
		if g == nil || g.in != in {
			g = NewGenerator(in, Extended())
		}
		lens := walkListLengths(in)
		g.Granular = in.NeighborLists(lens[bound/2%len(lens)])
		bound++
		g.MovesInto(&buf, s, wr, 4)
		visit(in, s, g.Granular, &buf)
		return buf.Data
	})
}

// FuzzGranularWalkMatchesReference holds the granular proposers to their
// frozen references (granular_ref_test.go) on a table and slot memos that
// one CandidateBuffer carries along a granularWalk: on every solution of
// the walk, every proposer's draws from the carried buffer return what
// the reference returns on a fresh index, and leave the RNG in the same
// state. The walk reaches kept, shifted and refilled routes, stale memo
// tags, changed lists, masks of one and two words and a changed instance.
func FuzzGranularWalkMatchesReference(f *testing.F) {
	f.Add(uint64(3), uint64(90), uint64(1), uint64(2), uint64(5))  // R2, 93 customers: 65-slot lists
	f.Add(uint64(4), uint64(80), uint64(3), uint64(7), uint64(11)) // C2, 83 customers
	f.Add(uint64(5), uint64(70), uint64(8), uint64(1), uint64(3))  // RC2, 73 customers
	f.Add(uint64(0), uint64(60), uint64(2), uint64(4), uint64(9))  // R1: short lists, many routes
	f.Add(uint64(1), uint64(40), uint64(5), uint64(3), uint64(1))  // C1
	f.Add(uint64(2), uint64(100), uint64(4), uint64(6), uint64(2)) // RC1
	f.Add(uint64(0), uint64(2), uint64(6), uint64(0), uint64(4))   // 5 customers
	f.Fuzz(func(t *testing.T, class, n, seed, walk, rseed uint64) {
		ops := Extended()
		r, rr := rng.New(rseed), rng.New(rseed)
		granularWalk(t, class, n, seed, walk, func(in *vrptw.Instance, s *solution.Solution, nl *vrptw.NeighborLists, buf *CandidateBuffer) {
			var ref refPosIndex
			ref.Reset(in, s)
			for _, o := range ops {
				for draw := 0; draw < 30; draw++ {
					got, ok := o.proposeGranular(in, s, &buf.pos, nl, r)
					want, wok := refPropose(o, in, s, &ref, nl, rr)
					if got != want || ok != wok {
						t.Fatalf("%s draw %d: proposed (%+v, %v), reference (%+v, %v)", o, draw, got, ok, want, wok)
					}
					if r.State() != rr.State() {
						t.Fatalf("%s draw %d: RNG state diverged from the reference", o, draw)
					}
				}
			}
		})
	})
}

// TestPosIndexIncrementalMatchesFresh checks the customer table a
// CandidateBuffer carries along walks on every class against a table
// freshly filled for the same solution: after every Reset, every record
// is the same.
func TestPosIndexIncrementalMatchesFresh(t *testing.T) {
	for class := uint64(0); class < 6; class++ {
		for _, n := range []uint64{30, 95} {
			granularWalk(t, class, n, 1+class, n+class, func(in *vrptw.Instance, s *solution.Solution, _ *vrptw.NeighborLists, buf *CandidateBuffer) {
				var fresh PosIndex
				fresh.Reset(in, s)
				got := buf.pos.cust
				if len(got) != len(fresh.cust) {
					t.Fatalf("class %d, N=%d: table has %d records, fresh %d", class, in.N(), len(got), len(fresh.cust))
				}
				for c := range got {
					if got[c] != fresh.cust[c] {
						t.Fatalf("class %d, N=%d: record of %d is %+v, fresh %+v", class, in.N(), c, got[c], fresh.cust[c])
					}
				}
				if buf.pos.arcs != fresh.arcs {
					t.Fatalf("class %d, N=%d: table holds another instance's arc bitset", class, in.N())
				}
			})
		}
	}
}
