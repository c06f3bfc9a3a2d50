// Package metrics implements multiobjective quality indicators used in the
// paper's evaluation and in the wider MOEA literature it references:
//
//   - Coverage: Zitzler's set coverage (C-metric), the paper's fourth
//     results column;
//   - Hypervolume: the dominated volume w.r.t. a reference point
//     (Zitzler's S-metric), in 3-D by inclusion–exclusion sweep;
//   - Spacing: Schott's spacing, measuring how evenly a front is spread.
//
// All indicators operate on plain objective vectors so they work on any
// front snapshot.
package metrics

import (
	"math"
	"sort"

	"repro/internal/solution"
)

// Coverage returns Zitzler's set coverage C(a, b): the fraction of
// solutions in b that are weakly dominated by at least one solution in a.
// C(a, b) = 1 means a covers b completely; the metric is not symmetric, so
// the paper reports both C(a, b) and C(b, a). An empty b yields 0.
func Coverage(a, b []solution.Objectives) float64 {
	if len(b) == 0 {
		return 0
	}
	covered := 0
	for _, ob := range b {
		for _, oa := range a {
			if oa.WeaklyDominates(ob) {
				covered++
				break
			}
		}
	}
	return float64(covered) / float64(len(b))
}

// Objs extracts the objective vectors of a solution list.
func Objs(front []*solution.Solution) []solution.Objectives {
	out := make([]solution.Objectives, len(front))
	for i, s := range front {
		out[i] = s.Obj
	}
	return out
}

// FeasibleObjs extracts the objective vectors of the feasible (no
// time-window violation) members of a front, following the paper's
// reporting convention.
func FeasibleObjs(front []*solution.Solution) []solution.Objectives {
	var out []solution.Objectives
	for _, s := range front {
		if s.Obj.Feasible() {
			out = append(out, s.Obj)
		}
	}
	return out
}

// Hypervolume returns the volume of the region dominated by the front and
// bounded by the reference point ref (which must be weakly dominated by
// every front member for a meaningful result; members beyond ref are
// clipped away). It sweeps the vehicles axis — integral in practice — and
// accumulates 2-D areas, which is exact for any front.
func Hypervolume(front []solution.Objectives, ref solution.Objectives) float64 {
	// Keep only points that strictly improve on ref in all objectives.
	var pts []solution.Objectives
	for _, p := range front {
		if p.Distance < ref.Distance && p.Vehicles < ref.Vehicles && p.Tardiness < ref.Tardiness {
			pts = append(pts, p)
		}
	}
	if len(pts) == 0 {
		return 0
	}
	// Sweep over distinct vehicle values ascending; between consecutive
	// values, the dominated (distance, tardiness) region is the union of
	// rectangles of all points with Vehicles <= current slab.
	vals := make([]float64, 0, len(pts))
	for _, p := range pts {
		vals = append(vals, p.Vehicles)
	}
	sort.Float64s(vals)
	vals = dedupe(vals)
	var volume float64
	for i, v := range vals {
		hi := ref.Vehicles
		if i+1 < len(vals) {
			hi = vals[i+1]
		}
		thickness := hi - v
		if thickness <= 0 {
			continue
		}
		var slab []solution.Objectives
		for _, p := range pts {
			if p.Vehicles <= v {
				slab = append(slab, p)
			}
		}
		volume += thickness * area2D(slab, ref)
	}
	return volume
}

// HVReference returns a run's hypervolume reference point, fixed from its
// construction solution c so that all of the run's front measurements
// compare: (2·distance+1, vehicles+1, 2·tardiness+1), comfortably beyond c.
func HVReference(c solution.Objectives) solution.Objectives {
	return solution.Objectives{Distance: 2*c.Distance + 1, Vehicles: c.Vehicles + 1, Tardiness: 2*c.Tardiness + 1}
}

// area2D returns the area of the union of rectangles
// [p.Distance, ref.Distance] × [p.Tardiness, ref.Tardiness].
func area2D(pts []solution.Objectives, ref solution.Objectives) float64 {
	if len(pts) == 0 {
		return 0
	}
	// Keep the 2-D non-dominated staircase, sorted by distance asc.
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].Distance != pts[j].Distance {
			return pts[i].Distance < pts[j].Distance
		}
		return pts[i].Tardiness < pts[j].Tardiness
	})
	var area float64
	bestTard := ref.Tardiness
	for _, p := range pts {
		if p.Tardiness >= bestTard {
			continue // dominated in 2-D
		}
		area += (ref.Distance - p.Distance) * (bestTard - p.Tardiness)
		bestTard = p.Tardiness
	}
	return area
}

func dedupe(sorted []float64) []float64 {
	out := sorted[:0]
	for i, v := range sorted {
		if i == 0 || v != sorted[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Spacing returns Schott's spacing metric: the standard deviation of the
// nearest-neighbor Manhattan distances within the front. 0 means perfectly
// even spread; it is 0 as well for fronts with fewer than two points.
func Spacing(front []solution.Objectives) float64 {
	n := len(front)
	if n < 2 {
		return 0
	}
	d := make([]float64, n)
	for i := range front {
		best := math.Inf(1)
		for j := range front {
			if i == j {
				continue
			}
			if m := manhattan(front[i], front[j]); m < best {
				best = m
			}
		}
		d[i] = best
	}
	var mean float64
	for _, v := range d {
		mean += v
	}
	mean /= float64(n)
	var ss float64
	for _, v := range d {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss / float64(n-1))
}

func manhattan(a, b solution.Objectives) float64 {
	av, bv := a.Values(), b.Values()
	var s float64
	for i := range av {
		s += math.Abs(av[i] - bv[i])
	}
	return s
}
