package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/deme"
	"repro/internal/pareto"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/tabu"
)

// stubProc satisfies deme.Proc for unit-testing searcher logic without a
// runtime: Compute advances a fake clock, messaging is inert.
type stubProc struct {
	clock float64
}

func (s *stubProc) ID() int                                  { return 0 }
func (s *stubProc) P() int                                   { return 1 }
func (s *stubProc) Now() float64                             { return s.clock }
func (s *stubProc) Compute(sec float64)                      { s.clock += sec }
func (s *stubProc) Send(int, int, any, int)                  {}
func (s *stubProc) TryRecv() (deme.Message, bool)            { return deme.Message{}, false }
func (s *stubProc) Recv() (deme.Message, bool)               { return deme.Message{}, false }
func (s *stubProc) RecvTimeout(float64) (deme.Message, bool) { return deme.Message{}, false }
func (s *stubProc) Alive(int) bool                           { return false }

func mkCand(d, v, tr float64, attr tabu.Attribute) cand {
	obj := solution.Objectives{Distance: d, Vehicles: v, Tardiness: tr}
	return cand{
		obj:  obj,
		sol:  &solution.Solution{Obj: obj}, // pre-materialized: no move to apply
		attr: attr,
	}
}

func newTestSearcher(t *testing.T) (*searcher, *stubProc) {
	t.Helper()
	in := testInstance(t, 20)
	cfg := smallConfig()
	if err := cfg.validate(in, Sequential); err != nil {
		t.Fatal(err)
	}
	s := newSearcher(in, &cfg, rng.New(1), 0, 0, 0)
	p := &stubProc{}
	s.init(p)
	return s, p
}

// TestFoldFrontMatchesNondominatedIndices checks foldFront's contract
// against the reference pareto.NondominatedIndices on random candidate
// sets: objectives are drawn from a coarse grid so dominance ties are
// common, and some candidates copy an earlier candidate's objectives
// outright. Both must keep every duplicate, in ascending index order.
func TestFoldFrontMatchesNondominatedIndices(t *testing.T) {
	var s searcher
	f := func(seed uint64, size uint8) bool {
		r := rng.New(seed)
		n := int(size % 64)
		cands := make([]cand, n)
		objs := make([]solution.Objectives, n)
		for i := range cands {
			if i > 0 && r.Intn(4) == 0 {
				objs[i] = objs[r.Intn(i)] // forced duplicate
			} else {
				objs[i] = solution.Objectives{
					Distance:  float64(r.Intn(6)),
					Vehicles:  float64(r.Intn(3)),
					Tardiness: float64(r.Intn(3)),
				}
			}
			cands[i].obj = objs[i]
		}
		want := pareto.NondominatedIndices(objs)
		got := s.foldFront(cands)
		if len(want) == 0 {
			return len(got) == 0
		}
		return slices.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSelectCandPrefersDominating(t *testing.T) {
	s, _ := newTestSearcher(t)
	cur := s.cur.Obj
	cands := []cand{
		mkCand(cur.Distance+10, cur.Vehicles, cur.Tardiness, 1),  // worse
		mkCand(cur.Distance-10, cur.Vehicles, cur.Tardiness, 2),  // dominates current
		mkCand(cur.Distance+5, cur.Vehicles-1, cur.Tardiness, 3), // trade-off
	}
	for trial := 0; trial < 20; trial++ {
		got := s.selectCand(cands, s.foldFront(cands))
		if got != 1 {
			t.Fatalf("selectCand picked %d, want the dominating candidate 1", got)
		}
	}
}

func TestSelectCandSkipsTabu(t *testing.T) {
	s, _ := newTestSearcher(t)
	cur := s.cur.Obj
	// A tabu candidate whose objectives would NOT enter the archive
	// (dominated by the current solution already in the archive).
	s.tl.Add(7)
	cands := []cand{
		mkCand(cur.Distance+10, cur.Vehicles, cur.Tardiness+1, 7),
	}
	if got := s.selectCand(cands, s.foldFront(cands)); got != -1 {
		t.Fatalf("tabu candidate selected (%d)", got)
	}
}

func TestSelectCandAspiration(t *testing.T) {
	s, _ := newTestSearcher(t)
	cur := s.cur.Obj
	s.tl.Add(9)
	// Tabu but archive-improving (dominates everything stored).
	cands := []cand{mkCand(cur.Distance-50, cur.Vehicles, 0, 9)}
	if got := s.selectCand(cands, s.foldFront(cands)); got != 0 {
		t.Fatal("aspiration did not admit an archive-improving tabu candidate")
	}
	s.cfg.DisableAspiration = true
	if got := s.selectCand(cands, s.foldFront(cands)); got != -1 {
		t.Fatal("DisableAspiration did not suppress the aspiration criterion")
	}
	s.cfg.DisableAspiration = false
}

func TestSelectCandEmpty(t *testing.T) {
	s, _ := newTestSearcher(t)
	if got := s.selectCand(nil, nil); got != -1 {
		t.Fatalf("empty candidate set selected %d", got)
	}
}

func TestStepUpdatesMemoriesAndTabu(t *testing.T) {
	s, p := newTestSearcher(t)
	cur := s.cur.Obj
	cands := []cand{
		mkCand(cur.Distance-1, cur.Vehicles, cur.Tardiness, 11),      // dominating, will be chosen
		mkCand(cur.Distance-2, cur.Vehicles+1, cur.Tardiness, 12),    // nondominated trade-off
		mkCand(cur.Distance+99, cur.Vehicles+2, cur.Tardiness+5, 13), // dominated by cand 0
	}
	improved := s.step(p, cands)
	if !improved {
		t.Error("dominating candidate should improve the archive")
	}
	if s.cur.Obj.Distance != cur.Distance-1 {
		t.Errorf("current solution not advanced: %+v", s.cur.Obj)
	}
	if !s.tl.Contains(11) {
		t.Error("chosen move's attribute not added to the tabu list")
	}
	if s.tl.Contains(13) {
		t.Error("unchosen move's attribute added to the tabu list")
	}
	// The nondominated neighbors (0 and 1) entered M_nondom.
	if s.nondom.Len() < 1 {
		t.Error("M_nondom not updated")
	}
	if s.iter != 1 {
		t.Errorf("iteration counter = %d, want 1", s.iter)
	}
}

func TestStepRestartAfterStagnation(t *testing.T) {
	s, p := newTestSearcher(t)
	cur := s.cur
	// Feed only dominated candidates: the archive never improves.
	for i := 0; i < s.restartIters; i++ {
		bad := mkCand(cur.Obj.Distance+float64(i+1), cur.Obj.Vehicles+1, cur.Obj.Tardiness+1, tabu.Attribute(100+i))
		s.step(p, []cand{bad})
	}
	if !s.noImprovement {
		t.Fatal("stagnation did not raise the noImprovement flag")
	}
	// The next step must restart from the memories instead of selecting.
	good := mkCand(cur.Obj.Distance-1, cur.Obj.Vehicles, cur.Obj.Tardiness, 999)
	s.step(p, []cand{good})
	if s.noImprovement {
		t.Error("noImprovement flag not consumed by the restart")
	}
	if s.tl.Contains(999) {
		t.Error("restart iteration must not add the candidate's move to the tabu list")
	}
}

func TestRestartConsumesNondom(t *testing.T) {
	s, _ := newTestSearcher(t)
	// Fill M_nondom with two solutions and make the archive empty-ish.
	a := &solution.Solution{Obj: solution.Objectives{Distance: 1, Vehicles: 1}}
	b := &solution.Solution{Obj: solution.Objectives{Distance: 0.5, Vehicles: 2}}
	s.nondom.Add(a)
	s.nondom.Add(b)
	before := s.nondom.Len() + s.archive.Len()
	s.restart()
	after := s.nondom.Len() + s.archive.Len()
	if after != before && after != before-1 {
		t.Fatalf("restart changed memory sizes %d -> %d", before, after)
	}
	if s.cur == nil {
		t.Fatal("restart lost the current solution")
	}
}

func TestPerturbDistribution(t *testing.T) {
	r := rng.New(6)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := perturb(r, 20)
		if v < 1 {
			t.Fatalf("perturb produced %d < 1", v)
		}
		seen[v] = true
	}
	// sigma = 5: values should spread over at least ~[10, 30].
	if len(seen) < 10 {
		t.Errorf("perturb too narrow: only %d distinct values", len(seen))
	}
	if !seen[20] {
		t.Error("perturb never returned the unperturbed value")
	}
	// Tiny parameters stay valid.
	for i := 0; i < 100; i++ {
		if perturb(r, 1) < 1 {
			t.Fatal("perturb(1) went below 1")
		}
	}
}

func TestMergeFrontsDedupes(t *testing.T) {
	a := &solution.Solution{Obj: solution.Objectives{Distance: 1, Vehicles: 2}}
	b := &solution.Solution{Obj: solution.Objectives{Distance: 1, Vehicles: 2}} // duplicate objectives
	c := &solution.Solution{Obj: solution.Objectives{Distance: 2, Vehicles: 1}}
	d := &solution.Solution{Obj: solution.Objectives{Distance: 3, Vehicles: 3}} // dominated
	merged := mergeFronts([][]*solution.Solution{{a, d}, {b, c}})
	if len(merged) != 2 {
		t.Fatalf("merged front has %d members, want 2 (dedupe + dominance)", len(merged))
	}
}
