// Package solution implements the paper's solution representation for the
// CVRPTW: a set of vehicle routes, interconvertible with the flat
// permutation encoding (customers separated by 0s, length N+R+1), together
// with the three-objective evaluation
//
//	f1 = total travel distance,
//	f2 = number of deployed vehicles,
//	f3 = total tardiness (soft time-window violation).
//
// Solutions cache per-route distance/tardiness/load so that move operators
// only re-evaluate the routes they touch (route-level incremental
// evaluation; see the ablation benchmarks). Route slices are treated as
// immutable once attached to a Solution: operators build fresh slices for
// the routes they modify and share the rest, so cloning is O(#routes).
package solution

import (
	"fmt"

	"repro/internal/vrptw"
)

// Objectives holds the three minimization objectives of a solution.
// Vehicles is a float64 for uniform treatment by the archive/metrics code
// but always holds an integral value.
type Objectives struct {
	Distance  float64 // f1: total Euclidean tour length
	Vehicles  float64 // f2: number of non-empty routes
	Tardiness float64 // f3: summed lateness over all sites incl. depot returns
}

// feasEps absorbs floating-point noise when deciding feasibility.
const feasEps = 1e-9

// Values returns the objectives as an array, in the order f1, f2, f3.
func (o Objectives) Values() [3]float64 {
	return [3]float64{o.Distance, o.Vehicles, o.Tardiness}
}

// Dominates reports whether o Pareto-dominates p: no worse in every
// objective and strictly better in at least one (all minimized).
func (o Objectives) Dominates(p Objectives) bool {
	better := false
	ov, pv := o.Values(), p.Values()
	for i := range ov {
		if ov[i] > pv[i] {
			return false
		}
		if ov[i] < pv[i] {
			better = true
		}
	}
	return better
}

// WeaklyDominates reports whether o is no worse than p in every objective.
func (o Objectives) WeaklyDominates(p Objectives) bool {
	ov, pv := o.Values(), p.Values()
	for i := range ov {
		if ov[i] > pv[i] {
			return false
		}
	}
	return true
}

// Feasible reports whether the solution respects all time windows
// (capacity feasibility is guaranteed by construction and operators).
func (o Objectives) Feasible() bool { return o.Tardiness <= feasEps }

// Solution is a CVRPTW solution: a list of non-empty routes plus cached
// per-route metrics and aggregate objectives. Route inner slices must not
// be mutated after attachment; use WithRoutes to derive modified solutions.
type Solution struct {
	Routes [][]int // customer IDs per route, depot implicit at both ends

	// Per-route caches, aligned with Routes.
	Dist []float64 // travel distance incl. depot legs
	Tard []float64 // tardiness incl. late depot return
	Load []float64 // summed demand

	Obj Objectives
}

// RouteMetrics evaluates one route from scratch: total travel distance
// (including both depot legs), total tardiness (lateness at each customer
// plus a late return to the depot), and total load. Vehicles depart the
// depot at its ready time and wait at customers that are not yet ready.
func RouteMetrics(in *vrptw.Instance, route []int) (dist, tard, load float64) {
	if len(route) == 0 {
		return 0, 0, 0
	}
	t := in.Sites[0].Ready
	prev := 0
	for _, c := range route {
		leg := in.Dist(prev, c)
		dist += leg
		t += leg
		s := in.Sites[c]
		if t < s.Ready {
			t = s.Ready
		}
		if t > s.Due {
			tard += t - s.Due
		}
		t += s.Service
		load += s.Demand
		prev = c
	}
	leg := in.Dist(prev, 0)
	dist += leg
	t += leg
	if due := in.Sites[0].Due; t > due {
		tard += t - due
	}
	return dist, tard, load
}

// Schedule returns the service start times along a route (after any
// waiting), one entry per customer, plus the final depot arrival time.
func Schedule(in *vrptw.Instance, route []int) (starts []float64, depotArrival float64) {
	starts = make([]float64, len(route))
	t := in.Sites[0].Ready
	prev := 0
	for i, c := range route {
		t += in.Dist(prev, c)
		s := in.Sites[c]
		if t < s.Ready {
			t = s.Ready
		}
		starts[i] = t
		t += s.Service
		prev = c
	}
	return starts, t + in.Dist(prev, 0)
}

// New builds a Solution from routes, dropping empty routes and evaluating
// everything from scratch. The inner route slices are retained and must
// not be mutated afterwards.
func New(in *vrptw.Instance, routes [][]int) *Solution {
	s := &Solution{}
	for _, r := range routes {
		if len(r) == 0 {
			continue
		}
		s.Routes = append(s.Routes, r)
	}
	n := len(s.Routes)
	s.Dist = make([]float64, n)
	s.Tard = make([]float64, n)
	s.Load = make([]float64, n)
	for i, r := range s.Routes {
		s.Dist[i], s.Tard[i], s.Load[i] = RouteMetrics(in, r)
	}
	s.refreshObjectives()
	return s
}

func (s *Solution) refreshObjectives() {
	var o Objectives
	for i := range s.Routes {
		o.Distance += s.Dist[i]
		o.Tardiness += s.Tard[i]
	}
	o.Vehicles = float64(len(s.Routes))
	s.Obj = o
}

// WithRoutes returns a new Solution equal to s except that the routes at
// the given indices are replaced (nil or empty replacement removes the
// route). Untouched routes are shared, and only replaced routes are
// re-evaluated. Indices must be valid and distinct.
func (s *Solution) WithRoutes(in *vrptw.Instance, idx []int, repl [][]int) *Solution {
	if len(idx) != len(repl) {
		panic("solution: WithRoutes index/replacement length mismatch")
	}
	n := len(s.Routes)
	routes := make([][]int, n)
	// One backing array for all three metric slices: WithRoutes is the
	// solution-materialization hot path, and the searcher's alloc budget
	// (<=10/iteration) counts every make here.
	flat := make([]float64, 3*n)
	dist := flat[0*n : 1*n : 1*n]
	tard := flat[1*n : 2*n : 2*n]
	load := flat[2*n : 3*n : 3*n]
	copy(routes, s.Routes)
	copy(dist, s.Dist)
	copy(tard, s.Tard)
	copy(load, s.Load)
	for k, i := range idx {
		routes[i] = repl[k]
		if len(repl[k]) == 0 {
			dist[i], tard[i], load[i] = 0, 0, 0
		} else {
			dist[i], tard[i], load[i] = RouteMetrics(in, repl[k])
		}
	}
	// Compact out removed routes.
	w := 0
	for i := range routes {
		if len(routes[i]) == 0 {
			continue
		}
		routes[w], dist[w], tard[w], load[w] = routes[i], dist[i], tard[i], load[i]
		w++
	}
	out := &Solution{Routes: routes[:w], Dist: dist[:w], Tard: tard[:w], Load: load[:w]}
	out.refreshObjectives()
	return out
}

// Clone returns a deep-enough copy of s: the route list and caches are
// copied, the immutable inner route slices are shared.
func (s *Solution) Clone() *Solution {
	c := &Solution{
		Routes: append([][]int(nil), s.Routes...),
		Dist:   append([]float64(nil), s.Dist...),
		Tard:   append([]float64(nil), s.Tard...),
		Load:   append([]float64(nil), s.Load...),
		Obj:    s.Obj,
	}
	return c
}

// Encode flattens the solution into the paper's permutation string: each
// route wrapped in 0s with consecutive 0s merged, padded with one 0 per
// unused vehicle, total length N+R+1. It fails if the solution deploys
// more vehicles than the instance allows.
func Encode(in *vrptw.Instance, s *Solution) ([]int, error) {
	if len(s.Routes) > in.Vehicles {
		return nil, fmt.Errorf("solution: %d routes exceed fleet size %d", len(s.Routes), in.Vehicles)
	}
	perm := make([]int, 0, in.PermLen())
	perm = append(perm, 0)
	for _, r := range s.Routes {
		perm = append(perm, r...)
		perm = append(perm, 0)
	}
	for i := len(s.Routes); i < in.Vehicles; i++ {
		perm = append(perm, 0)
	}
	return perm, nil
}

// Decode parses a permutation string (as produced by Encode) back into an
// evaluated Solution. It checks the length N+R+1, the depot at both ends
// and, through CheckRoutes, each customer exactly once; together these
// leave exactly R+1 depot symbols.
func Decode(in *vrptw.Instance, perm []int) (*Solution, error) {
	if len(perm) != in.PermLen() {
		return nil, fmt.Errorf("solution: permutation length %d, want %d", len(perm), in.PermLen())
	}
	if perm[0] != 0 || perm[len(perm)-1] != 0 {
		return nil, fmt.Errorf("solution: permutation must start and end with the depot")
	}
	var routes [][]int
	var cur []int
	for _, v := range perm {
		if v != 0 {
			cur = append(cur, v)
		} else if len(cur) > 0 {
			routes = append(routes, cur)
			cur = nil
		}
	}
	if err := CheckRoutes(in, routes); err != nil {
		return nil, err
	}
	return New(in, routes), nil
}

// CheckRoutes checks routes that come from outside the run — a peer's
// share batch, a decoded permutation, a stored checkpoint — for what New
// needs: every customer in 1..N, each routed once, all routed, and no
// empty route. New assumes these and indexes out of range on garbage.
// It does not bound the routes by the fleet: a run's own solutions may
// deploy more vehicles than the instance has.
func CheckRoutes(in *vrptw.Instance, routes [][]int) error {
	seen := make([]bool, in.N()+1)
	total := 0
	for i, r := range routes {
		if len(r) == 0 {
			return fmt.Errorf("solution: route %d is empty", i)
		}
		for _, c := range r {
			if c < 1 || c > in.N() {
				return fmt.Errorf("solution: route %d holds customer %d (instance has %d)", i, c, in.N())
			}
			if seen[c] {
				return fmt.Errorf("solution: customer %d appears twice", c)
			}
			seen[c] = true
			total++
		}
	}
	if total != in.N() {
		return fmt.Errorf("solution: routes hold %d of %d customers", total, in.N())
	}
	return nil
}

// Validate checks the structural invariants of s against the instance:
// every customer routed exactly once, no empty routes, cached metrics and
// objectives consistent with a from-scratch evaluation, and no route over
// capacity. It is used by tests and by paranoid assertions in the search.
func Validate(in *vrptw.Instance, s *Solution) error {
	if len(s.Dist) != len(s.Routes) || len(s.Tard) != len(s.Routes) || len(s.Load) != len(s.Routes) {
		return fmt.Errorf("solution: cache lengths %d/%d/%d do not match %d routes",
			len(s.Dist), len(s.Tard), len(s.Load), len(s.Routes))
	}
	seen := make([]bool, in.N()+1)
	var obj Objectives
	for i, r := range s.Routes {
		if len(r) == 0 {
			return fmt.Errorf("solution: route %d is empty", i)
		}
		for _, c := range r {
			if c < 1 || c > in.N() {
				return fmt.Errorf("solution: route %d contains invalid site %d", i, c)
			}
			if seen[c] {
				return fmt.Errorf("solution: customer %d appears twice", c)
			}
			seen[c] = true
		}
		d, t, l := RouteMetrics(in, r)
		if !approx(d, s.Dist[i]) || !approx(t, s.Tard[i]) || !approx(l, s.Load[i]) {
			return fmt.Errorf("solution: route %d cache (%g,%g,%g) differs from evaluation (%g,%g,%g)",
				i, s.Dist[i], s.Tard[i], s.Load[i], d, t, l)
		}
		if l > in.Capacity+feasEps {
			return fmt.Errorf("solution: route %d load %g exceeds capacity %g", i, l, in.Capacity)
		}
		obj.Distance += d
		obj.Tardiness += t
	}
	obj.Vehicles = float64(len(s.Routes))
	for c := 1; c <= in.N(); c++ {
		if !seen[c] {
			return fmt.Errorf("solution: customer %d missing", c)
		}
	}
	if !approx(obj.Distance, s.Obj.Distance) || obj.Vehicles != s.Obj.Vehicles || !approx(obj.Tardiness, s.Obj.Tardiness) {
		return fmt.Errorf("solution: objectives %+v differ from evaluation %+v", s.Obj, obj)
	}
	return nil
}

func approx(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if a > scale {
		scale = a
	}
	if b > scale {
		scale = b
	}
	return d <= 1e-6*scale
}
