// Package construct implements Solomon's I1 sequential insertion heuristic
// (Operations Research 35, 1987), the route-construction method the paper
// uses to generate initial solutions, with the paper's randomized
// parameterization: the seed-customer rule (farthest vs. earliest due date)
// and the weighting parameters are drawn at random per run (§III.B).
//
// I1 builds routes one at a time. Each route starts from a seed customer;
// every remaining customer is then scored at its cheapest feasible
// insertion position by
//
//	c1(i,u,j) = α1·(d(i,u) + d(u,j) − μ·d(i,j)) + α2·(push-forward at j)
//
// and the customer maximizing the savings c2(u) = λ·d(0,u) − c1 is
// inserted. When no customer fits, a new route is opened. Customers that
// cannot even start a route feasibly (unreachable windows) end up in
// singleton routes and contribute tardiness — the search tolerates and
// repairs soft violations.
package construct

import (
	"math"
	"slices"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// Params are the I1 weights. Alpha2 is implicitly 1 − Alpha1.
type Params struct {
	Mu      float64 // route-detour discount, ≥ 0
	Alpha1  float64 // weight of the distance criterion, in [0, 1]
	Lambda  float64 // savings weight of the depot distance, ≥ 0
	SeedFar bool    // seed rule: farthest customer (true) or earliest due date (false)
}

// DefaultParams returns Solomon's classic parameterization
// (μ=1, α1=0.5, λ=1, farthest seed).
func DefaultParams() Params {
	return Params{Mu: 1, Alpha1: 0.5, Lambda: 1, SeedFar: true}
}

// RandomParams draws the randomized parameterization used by the paper:
// μ ∈ [0,1], α1 ∈ [0,1], λ ∈ [1,2], and a fair coin for the seed rule.
func RandomParams(r *rng.Rand) Params {
	return Params{
		Mu:      r.Float64(),
		Alpha1:  r.Float64(),
		Lambda:  1 + r.Float64(),
		SeedFar: r.Intn(2) == 0,
	}
}

// I1 constructs a complete solution for the instance.
func I1(in *vrptw.Instance, p Params) *solution.Solution {
	// The unrouted customers, ascending. pickSeed and bestInsertion break
	// ties on the lower customer ID, so the order they scan in cannot
	// change the pick.
	unrouted := make([]int, in.N())
	for i := range unrouted {
		unrouted[i] = i + 1
	}
	var b bounds
	var routes [][]int
	for len(unrouted) > 0 {
		seed := pickSeed(in, unrouted, p.SeedFar)
		unrouted = remove(unrouted, seed)
		route := []int{seed}
		load := in.Sites[seed].Demand
		for {
			b.fill(in, route)
			u, pos, ok := bestInsertion(in, p, route, &b, load, unrouted)
			if !ok {
				break
			}
			route = insertAt(route, pos, u)
			load += in.Sites[u].Demand
			unrouted = remove(unrouted, u)
		}
		routes = append(routes, route)
	}
	return solution.New(in, routes)
}

// remove deletes customer c from the ascending list, keeping it ascending.
func remove(list []int, c int) []int {
	for i, u := range list {
		if u == c {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// pickSeed returns the unrouted customer that is farthest from the depot
// or has the earliest due date, per the seed rule.
func pickSeed(in *vrptw.Instance, unrouted []int, far bool) int {
	best, bestVal := -1, 0.0
	for _, c := range unrouted {
		var v float64
		if far {
			v = in.Dist(0, c)
		} else {
			v = -in.Sites[c].Due
		}
		if best == -1 || v > bestVal || (v == bestVal && c < best) {
			best, bestVal = c, v
		}
	}
	return best
}

// bestInsertion finds the unrouted customer with the maximum savings c2 and
// its cheapest feasible insertion position; b holds route's schedule
// bounds. ok is false when no customer has any feasible position.
func bestInsertion(in *vrptw.Instance, p Params, route []int, b *bounds, load float64, unrouted []int) (cust, pos int, ok bool) {
	bestC2 := math.Inf(-1)
	cust, pos = -1, -1
	for _, u := range unrouted {
		if load+in.Sites[u].Demand > in.Capacity {
			continue
		}
		c1, bp, feas := cheapestPosition(in, p, route, b.starts, b.latest, u)
		if !feas {
			continue
		}
		c2 := p.Lambda*in.Dist(0, u) - c1
		// Deterministic tie-break on customer ID: the pick does not depend
		// on the scan order.
		if c2 > bestC2 || (c2 == bestC2 && (cust == -1 || u < cust)) {
			bestC2, cust, pos = c2, u, bp
		}
	}
	return cust, pos, cust >= 0
}

// bounds holds a route's schedule bounds (see scheduleBounds) in storage
// reused across fills.
type bounds struct {
	starts, latest []float64
}

// scheduleBounds returns, for the current route, the service start times
// (forward pass) and the latest allowable start times that keep the whole
// suffix — including the depot return — within its windows (backward pass).
func scheduleBounds(in *vrptw.Instance, route []int) (starts, latest []float64) {
	var b bounds
	b.fill(in, route)
	return b.starts, b.latest
}

// fill computes route's schedule bounds into b, reusing its storage.
func (b *bounds) fill(in *vrptw.Instance, route []int) {
	n := len(route)
	b.starts = slices.Grow(b.starts[:0], n)[:n]
	b.latest = slices.Grow(b.latest[:0], n)[:n]
	t := in.Sites[0].Ready
	prev := 0
	for k, c := range route {
		t += in.Dist(prev, c)
		if rdy := in.Sites[c].Ready; t < rdy {
			t = rdy
		}
		b.starts[k] = t
		t += in.Sites[c].Service
		prev = c
	}
	lnext := in.Horizon() // latest arrival back at the depot
	next := 0
	for k := n - 1; k >= 0; k-- {
		c := route[k]
		l := lnext - in.Dist(c, next) - in.Sites[c].Service
		if due := in.Sites[c].Due; l > due {
			l = due
		}
		b.latest[k] = l
		lnext = l
		next = c
	}
}

// cheapestPosition scores every insertion position of u in route and
// returns the smallest c1 and its position; feas is false when no position
// is time-window feasible.
func cheapestPosition(in *vrptw.Instance, p Params, route []int, starts, latest []float64, u int) (c1 float64, pos int, feas bool) {
	su := in.Sites[u]
	c1, pos = math.Inf(1), -1
	for k := 0; k <= len(route); k++ {
		// Insert between i (position k-1, depot if k==0) and j
		// (position k, depot return if k==len).
		var i int
		var depI float64
		if k == 0 {
			i = 0
			depI = in.Sites[0].Ready
		} else {
			i = route[k-1]
			depI = starts[k-1] + in.Sites[i].Service
		}
		arrU := depI + in.Dist(i, u)
		if arrU < su.Ready {
			arrU = su.Ready
		}
		if arrU > su.Due {
			continue
		}
		depU := arrU + su.Service
		var j int
		var push float64
		if k == len(route) {
			j = 0
			back := depU + in.Dist(u, 0)
			if back > in.Horizon() {
				continue
			}
			push = 0
		} else {
			j = route[k]
			newStart := depU + in.Dist(u, j)
			if rdy := in.Sites[j].Ready; newStart < rdy {
				newStart = rdy
			}
			if newStart > latest[k] {
				continue
			}
			push = newStart - starts[k]
			if push < 0 {
				push = 0
			}
		}
		c11 := in.Dist(i, u) + in.Dist(u, j) - p.Mu*in.Dist(i, j)
		v := p.Alpha1*c11 + (1-p.Alpha1)*push
		if v < c1 {
			c1, pos = v, k
		}
	}
	return c1, pos, pos >= 0
}

func insertAt(route []int, pos, c int) []int {
	route = append(route, 0)
	copy(route[pos+1:], route[pos:])
	route[pos] = c
	return route
}
