package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/solution"
)

func o(d, v, tr float64) solution.Objectives {
	return solution.Objectives{Distance: d, Vehicles: v, Tardiness: tr}
}

func TestCoverageBasics(t *testing.T) {
	a := []solution.Objectives{o(1, 1, 0), o(2, 0, 0)}
	b := []solution.Objectives{o(2, 2, 0), o(0, 0, 0)}
	// a covers (2,2,0) via (1,1,0) but not (0,0,0).
	if got := Coverage(a, b); got != 0.5 {
		t.Errorf("Coverage(a,b) = %g, want 0.5", got)
	}
	// b covers everything: (0,0,0) weakly dominates both members of a.
	if got := Coverage(b, a); got != 1.0 {
		t.Errorf("Coverage(b,a) = %g, want 1", got)
	}
	if got := Coverage(a, nil); got != 0 {
		t.Errorf("Coverage vs empty = %g, want 0", got)
	}
	// Identical fronts weakly dominate each other completely.
	if got := Coverage(a, a); got != 1 {
		t.Errorf("Coverage(a,a) = %g, want 1", got)
	}
}

func TestCoverageRange(t *testing.T) {
	f := func(av, bv []uint8) bool {
		mk := func(v []uint8) []solution.Objectives {
			out := make([]solution.Objectives, 0, len(v))
			for i := 0; i+2 < len(v); i += 3 {
				out = append(out, o(float64(v[i]), float64(v[i+1]), float64(v[i+2])))
			}
			return out
		}
		a, b := mk(av), mk(bv)
		c := Coverage(a, b)
		return c >= 0 && c <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHypervolumeRectangles(t *testing.T) {
	ref := o(10, 10, 10)
	// One point at origin dominates the whole cube.
	if got := Hypervolume([]solution.Objectives{o(0, 0, 0)}, ref); got != 1000 {
		t.Errorf("single-point HV = %g, want 1000", got)
	}
	// A point outside the reference contributes nothing.
	if got := Hypervolume([]solution.Objectives{o(11, 0, 0)}, ref); got != 0 {
		t.Errorf("outside-point HV = %g, want 0", got)
	}
	if got := Hypervolume(nil, ref); got != 0 {
		t.Errorf("empty HV = %g, want 0", got)
	}
}

func TestHypervolumeUnion(t *testing.T) {
	ref := o(10, 10, 10)
	// Two staircase points in the distance/vehicles plane, tardiness 0.
	front := []solution.Objectives{o(2, 6, 0), o(6, 2, 0)}
	// Volumes: slab v in [6,10): points with V<=6: both -> 2D area of
	// union of [2,10]x[0,10] and [6,10]... compute by hand:
	// slab [2? ... vehicles values sorted: 2, 6.
	// slab v=2..6 thickness 4: points with V<=2: {(6,2,0)} -> area (10-6)*(10-0)=40 -> 160
	// slab v=6..10 thickness 4: both points -> union area:
	//   staircase dist asc: (2,·,0) area (10-2)*(10-0)=80; next point tard 0 not < 0 -> skip
	//   so area 80 -> 320. total 480.
	if got := Hypervolume(front, ref); math.Abs(got-480) > 1e-9 {
		t.Errorf("union HV = %g, want 480", got)
	}
}

func TestHypervolumeMonotone(t *testing.T) {
	ref := o(100, 100, 100)
	base := []solution.Objectives{o(50, 50, 50)}
	more := append([]solution.Objectives{o(20, 80, 20)}, base...)
	if Hypervolume(more, ref) <= Hypervolume(base, ref) {
		t.Error("adding a non-dominated point must increase hypervolume")
	}
	// Adding a dominated point changes nothing.
	dom := append([]solution.Objectives{o(60, 60, 60)}, base...)
	if Hypervolume(dom, ref) != Hypervolume(base, ref) {
		t.Error("dominated point changed hypervolume")
	}
}

func TestSpacing(t *testing.T) {
	// Perfectly even spread -> 0.
	even := []solution.Objectives{o(0, 4, 0), o(1, 3, 0), o(2, 2, 0), o(3, 1, 0)}
	if got := Spacing(even); math.Abs(got) > 1e-12 {
		t.Errorf("even spacing = %g, want 0", got)
	}
	// Uneven spread -> positive.
	uneven := []solution.Objectives{o(0, 10, 0), o(0.1, 9.9, 0), o(10, 0, 0)}
	if got := Spacing(uneven); got <= 0 {
		t.Errorf("uneven spacing = %g, want > 0", got)
	}
	if Spacing(nil) != 0 || Spacing(even[:1]) != 0 {
		t.Error("degenerate fronts should have spacing 0")
	}
}

func TestObjsHelpers(t *testing.T) {
	front := []*solution.Solution{
		{Obj: o(1, 2, 0)},
		{Obj: o(3, 4, 5)},
	}
	objs := Objs(front)
	if len(objs) != 2 || objs[1].Tardiness != 5 {
		t.Errorf("Objs = %v", objs)
	}
	feas := FeasibleObjs(front)
	if len(feas) != 1 || feas[0].Distance != 1 {
		t.Errorf("FeasibleObjs = %v", feas)
	}
}

func BenchmarkCoverage(b *testing.B) {
	var a, c []solution.Objectives
	for i := 0; i < 20; i++ {
		a = append(a, o(float64(i), float64(20-i), 0))
		c = append(c, o(float64(i)+0.5, float64(20-i)+0.5, 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Coverage(a, c)
	}
}

func BenchmarkHypervolume(b *testing.B) {
	var front []solution.Objectives
	for i := 0; i < 20; i++ {
		front = append(front, o(float64(i), float64(20-i), float64(i%5)))
	}
	ref := o(100, 100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hypervolume(front, ref)
	}
}
