package pareto

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/solution"
)

// sol makes a bare solution carrying only objectives, which is all the
// archive logic looks at.
func sol(d, v, tr float64) *solution.Solution {
	return &solution.Solution{Obj: solution.Objectives{Distance: d, Vehicles: v, Tardiness: tr}}
}

func TestArchiveAddBasics(t *testing.T) {
	a := NewArchive(10)
	if !a.Add(sol(10, 2, 0)) {
		t.Fatal("first add rejected")
	}
	if a.Add(sol(10, 2, 0)) {
		t.Error("exact duplicate accepted")
	}
	if a.Add(sol(11, 2, 0)) {
		t.Error("dominated solution accepted")
	}
	if !a.Add(sol(7, 3, 0)) {
		t.Error("trade-off solution rejected")
	}
	if a.Len() != 2 {
		t.Fatalf("len = %d, want 2", a.Len())
	}
	// A dominating solution replaces what it dominates.
	if !a.Add(sol(8, 2, 0)) {
		t.Error("dominating solution rejected")
	}
	if a.Len() != 2 { // kills (10,2,0), keeps (9,3,0)
		t.Fatalf("len = %d, want 2 after replacement", a.Len())
	}
	for _, m := range a.Items() {
		if m.Obj.Distance == 10 {
			t.Error("dominated member not evicted")
		}
	}
}

func TestArchiveMutualNondominance(t *testing.T) {
	f := func(seeds []uint16) bool {
		a := NewArchive(8)
		r := rng.New(1)
		for range seeds {
			a.Add(sol(float64(r.Intn(20)), float64(r.Intn(5)), float64(r.Intn(3))))
		}
		items := a.Items()
		for i := range items {
			for j := range items {
				if i != j && items[i].Obj.Dominates(items[j].Obj) {
					return false
				}
			}
		}
		return a.Len() <= a.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestArchiveCapacityEviction(t *testing.T) {
	a := NewArchive(3)
	// Four mutually non-dominated points on a line; the crowded interior
	// one should be evicted.
	a.Add(sol(1, 10, 0))
	a.Add(sol(10, 1, 0))
	a.Add(sol(5, 5, 0))
	if !a.Add(sol(5.1, 4.9, 0)) && a.Len() != 3 {
		t.Fatal("archive should stay at capacity")
	}
	if a.Len() != 3 {
		t.Fatalf("len = %d, want 3", a.Len())
	}
	// The boundary points must survive (infinite crowding distance).
	var hasLo, hasHi bool
	for _, m := range a.Items() {
		if m.Obj.Distance == 1 {
			hasLo = true
		}
		if m.Obj.Distance == 10 {
			hasHi = true
		}
	}
	if !hasLo || !hasHi {
		t.Error("crowding eviction removed a boundary point")
	}
}

func TestArchiveAddReportsMembership(t *testing.T) {
	a := NewArchive(2)
	a.Add(sol(1, 10, 0))
	a.Add(sol(10, 1, 0))
	// A crowded middle point enters and is immediately evicted -> false,
	// or evicts another; either way the report must match membership.
	in := a.Add(sol(5.5, 5.5, 0))
	found := false
	for _, m := range a.Items() {
		if m.Obj.Distance == 5.5 {
			found = true
		}
	}
	if in != found {
		t.Errorf("Add reported %v but membership is %v", in, found)
	}
}

func TestWouldAccept(t *testing.T) {
	a := NewArchive(5)
	a.Add(sol(10, 2, 0))
	if a.WouldAccept(sol(11, 2, 0).Obj) {
		t.Error("dominated candidate reported as improving")
	}
	if a.WouldAccept(sol(10, 2, 0).Obj) {
		t.Error("duplicate reported as improving")
	}
	if !a.WouldAccept(sol(9, 3, 0).Obj) {
		t.Error("trade-off candidate not improving")
	}
	if a.Len() != 1 {
		t.Error("WouldAccept modified the archive")
	}
}

func TestTakeRandom(t *testing.T) {
	a := NewArchive(5)
	a.Add(sol(1, 5, 0))
	a.Add(sol(5, 1, 0))
	r := rng.New(2)
	s1 := a.TakeRandom(r)
	if s1 == nil || a.Len() != 1 {
		t.Fatal("TakeRandom did not remove")
	}
	s2 := a.TakeRandom(r)
	if s2 == nil || a.Len() != 0 {
		t.Fatal("second TakeRandom failed")
	}
	if s1 == s2 {
		t.Error("TakeRandom returned the same solution twice")
	}
	if a.TakeRandom(r) != nil {
		t.Error("TakeRandom on empty archive should return nil")
	}
	if a.Random(r) != nil {
		t.Error("Random on empty archive should return nil")
	}
}

func TestCrowdingDistances(t *testing.T) {
	objs := []solution.Objectives{
		{Distance: 0, Vehicles: 10, Tardiness: 0},
		{Distance: 1, Vehicles: 9, Tardiness: 0},
		{Distance: 2, Vehicles: 5, Tardiness: 0},
		{Distance: 10, Vehicles: 0, Tardiness: 0},
	}
	d := CrowdingDistances(objs)
	if !math.IsInf(d[0], 1) || !math.IsInf(d[3], 1) {
		t.Error("boundary points must have infinite crowding distance")
	}
	if math.IsInf(d[1], 1) || math.IsInf(d[2], 1) {
		t.Error("interior points must be finite")
	}
	// Point 1 is closer to its neighbors than point 2 -> smaller distance.
	if d[1] >= d[2] {
		t.Errorf("d[1]=%g should be < d[2]=%g", d[1], d[2])
	}
}

func TestCrowdingSmallSets(t *testing.T) {
	for n := 0; n <= 2; n++ {
		objs := make([]solution.Objectives, n)
		for _, v := range CrowdingDistances(objs) {
			if !math.IsInf(v, 1) {
				t.Errorf("n=%d: expected all infinite", n)
			}
		}
	}
}

func TestCrowdingConstantObjective(t *testing.T) {
	objs := []solution.Objectives{
		{Distance: 1, Vehicles: 3, Tardiness: 0},
		{Distance: 2, Vehicles: 2, Tardiness: 0},
		{Distance: 3, Vehicles: 1, Tardiness: 0},
	}
	d := CrowdingDistances(objs) // tardiness constant: no NaNs allowed
	for i, v := range d {
		if math.IsNaN(v) {
			t.Fatalf("NaN crowding distance at %d", i)
		}
	}
}

func TestNondominatedIndices(t *testing.T) {
	objs := []solution.Objectives{
		{Distance: 1, Vehicles: 5, Tardiness: 0}, // nondominated
		{Distance: 2, Vehicles: 5, Tardiness: 0}, // dominated by 0
		{Distance: 5, Vehicles: 1, Tardiness: 0}, // nondominated
		{Distance: 1, Vehicles: 5, Tardiness: 1}, // dominated by 0
	}
	got := NondominatedIndices(objs)
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("NondominatedIndices = %v, want [0 2]", got)
	}
	if NondominatedIndices(nil) != nil {
		t.Error("empty input should yield nil")
	}
}

// TestFoldMatchesNondominatedIndices holds Fold to the all-pairs
// reference on random sets: objectives come from a coarse grid so
// dominance ties are common, and some vectors copy an earlier one
// outright. Folded in index order (Front), in a random permutation, and
// as two random halves folded apart and the second's result folded into
// the first's, the sorted result must equal NondominatedIndices,
// duplicates kept.
func TestFoldMatchesNondominatedIndices(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		r := rng.New(seed)
		n := int(size % 64)
		objs := make([]solution.Objectives, n)
		for i := range objs {
			if i > 0 && r.Intn(4) == 0 {
				objs[i] = objs[r.Intn(i)] // forced duplicate
			} else {
				objs[i] = solution.Objectives{
					Distance:  float64(r.Intn(6)),
					Vehicles:  float64(r.Intn(3)),
					Tardiness: float64(r.Intn(3)),
				}
			}
		}
		want := NondominatedIndices(objs)
		if got := Front(nil, objs); !slices.Equal(got, want) {
			t.Logf("index order: %v, want %v", got, want)
			return false
		}
		perm := r.Perm(n)
		var all []int
		for _, i := range perm {
			all = Fold(all, objs, i)
		}
		slices.Sort(all)
		if !slices.Equal(all, want) {
			t.Logf("permutation %v: %v, want %v", perm, all, want)
			return false
		}
		cut := r.Intn(n + 1)
		var a, b []int
		for _, i := range perm[:cut] {
			a = Fold(a, objs, i)
		}
		for _, i := range perm[cut:] {
			b = Fold(b, objs, i)
		}
		for _, i := range b {
			a = Fold(a, objs, i)
		}
		slices.Sort(a)
		if !slices.Equal(a, want) {
			t.Logf("halves %v | %v: %v, want %v", perm[:cut], perm[cut:], a, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNewArchivePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewArchive(0) did not panic")
		}
	}()
	NewArchive(0)
}

func BenchmarkArchiveAdd(b *testing.B) {
	r := rng.New(3)
	a := NewArchive(20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Add(sol(r.Float64()*100, float64(r.Intn(20)), r.Float64()*5))
	}
}
