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
	b := construction{in: in, p: p}
	return solution.New(in, b.routes())
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

// construction is I1's state: the open route's schedule bounds before (prev)
// and after (cur) its last insertion, and dead[u], set when customer u
// had no feasible position in the open route at the last scan. rescans
// counts the insertions after which dead could not be trusted.
type construction struct {
	in        *vrptw.Instance
	p         Params
	cur, prev bounds
	dead      []bool
	rescans   int
}

// routes builds I1's routes one at a time.
func (b *construction) routes() [][]int {
	in := b.in
	// The unrouted customers, ascending. pickSeed and bestInsertion break
	// ties on the lower customer ID, so the order they scan in cannot
	// change the pick.
	unrouted := make([]int, in.N())
	for i := range unrouted {
		unrouted[i] = i + 1
	}
	b.dead = make([]bool, in.N()+1)
	var routes [][]int
	for len(unrouted) > 0 {
		seed := pickSeed(in, unrouted, b.p.SeedFar)
		unrouted = remove(unrouted, seed)
		route := []int{seed}
		load := in.Sites[seed].Demand
		at := -1 // where the last customer went into route; -1 before any
		for {
			b.cur.fill(in, route)
			u, pos, ok := b.bestInsertion(route, load, unrouted, at)
			if !ok {
				break
			}
			route = insertAt(route, pos, u)
			load += in.Sites[u].Demand
			unrouted = remove(unrouted, u)
			b.cur, b.prev = b.prev, b.cur
			at = pos
		}
		routes = append(routes, route)
	}
	return routes
}

// bestInsertion finds the unrouted customer with the maximum savings c2 and
// its cheapest feasible insertion position in route, whose bounds b.cur
// holds; at is the position the last customer was inserted at (-1 for a
// fresh route). ok is false when no customer has any feasible position.
//
// A dead customer is re-tested only at the two positions beside the last
// insertion, and only when no surviving customer's start moved earlier nor
// its latest start later (bounds.tightened): then every older position of
// the route is at least as constrained as when the customer failed it.
// Otherwise every customer is scanned afresh.
func (b *construction) bestInsertion(route []int, load float64, unrouted []int, at int) (cust, pos int, ok bool) {
	in, p := b.in, b.p
	memo := at >= 0 && b.cur.tightened(&b.prev, at)
	if at >= 0 && !memo {
		b.rescans++
	}
	bestC2 := math.Inf(-1)
	cust, pos = -1, -1
	for _, u := range unrouted {
		// The route's load only grows, so a capacity failure is final.
		if load+in.Sites[u].Demand > in.Capacity {
			b.dead[u] = true
			continue
		}
		from, to := 0, len(route)+1
		if memo && b.dead[u] {
			from, to = at, at+2
		}
		c1, bp, feas := b.cur.cheapest(in, p, route, u, from, to)
		b.dead[u] = !feas
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

// bounds holds a route's schedule bounds in storage reused across fills:
// starts[k] is the service start of route[k] on the forward pass,
// latest[k] the latest start that keeps the whole suffix — including the
// depot return — within its windows (backward pass), and dep[k] the
// departure from the site before insertion position k (the depot's ready
// time for k = 0). All three never decrease along the route.
type bounds struct {
	starts, latest, dep []float64
}

// fill computes route's schedule bounds into b, reusing its storage.
func (b *bounds) fill(in *vrptw.Instance, route []int) {
	n := len(route)
	b.starts = slices.Grow(b.starts[:0], n)[:n]
	b.latest = slices.Grow(b.latest[:0], n)[:n]
	b.dep = slices.Grow(b.dep[:0], n+1)[:n+1]
	t := in.Sites[0].Ready
	b.dep[0] = t
	prev := 0
	for k, c := range route {
		t += in.Dist(prev, c)
		if rdy := in.Sites[c].Ready; t < rdy {
			t = rdy
		}
		b.starts[k] = t
		t += in.Sites[c].Service
		b.dep[k+1] = t
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

// tightened reports whether b, the bounds of old's route with one customer
// inserted at position at, starts no surviving customer earlier and gives
// none a later latest start than old did. The comparison is on the
// computed values, so no triangle inequality is assumed.
func (b *bounds) tightened(old *bounds, at int) bool {
	for k := range old.starts {
		nk := k
		if k >= at {
			nk++
		}
		if b.starts[nk] < old.starts[k] || b.latest[nk] > old.latest[k] {
			return false
		}
	}
	return true
}

// cheapest scores the insertion positions in [from, to) of u in route,
// whose bounds b holds — [0, len(route)+1) for all of them — and returns
// the smallest c1 and its position; feas is false when none is
// time-window feasible.
//
// It scores just the positions in [lo, hi); the others fail cost's own
// tests. u departs no earlier than Ready(u)+Service(u), so it cannot
// reach route[k] by latest[k] at a position before lo, the first with
// latest[k] at least that; and from hi, the first position whose
// predecessor departs after Due(u), it arrives late. latest and dep never
// decrease, so both cuts are exact.
func (b *bounds) cheapest(in *vrptw.Instance, p Params, route []int, u, from, to int) (c1 float64, pos int, feas bool) {
	su := &in.Sites[u]
	minDep := su.Ready + su.Service
	lo, hi := from, min(to, len(route))
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); b.latest[m] < minDep {
			lo = m + 1
		} else {
			hi = m
		}
	}
	hi = to
	for l := lo; l < hi; {
		if m := int(uint(l+hi) >> 1); b.dep[m] > su.Due {
			hi = m
		} else {
			l = m + 1
		}
	}
	c1, pos = math.Inf(1), -1
	for k := lo; k < hi; k++ {
		if v, ok := b.cost(in, p, route, u, k); ok && v < c1 {
			c1, pos = v, k
		}
	}
	return c1, pos, pos >= 0
}

// cost returns the I1 cost c1 of inserting u at position k of route —
// between i (position k-1, the depot if k == 0) and j (position k, the
// depot return if k == len) — and whether that insertion is time-window
// feasible. Both of u's distances are taken with u second, Dist(i, u) and
// Dist(j, u): Dist(j, u) is Dist(u, j) bit for bit, since Dist is
// symmetric.
func (b *bounds) cost(in *vrptw.Instance, p Params, route []int, u, k int) (float64, bool) {
	su := &in.Sites[u]
	i := 0
	if k > 0 {
		i = route[k-1]
	}
	arrU := b.dep[k] + in.Dist(i, u)
	if arrU < su.Ready {
		arrU = su.Ready
	}
	if arrU > su.Due {
		return 0, false
	}
	depU := arrU + su.Service
	j := 0
	var push float64
	if k == len(route) {
		if depU+in.Dist(0, u) > in.Horizon() {
			return 0, false
		}
	} else {
		j = route[k]
		newStart := depU + in.Dist(j, u)
		if rdy := in.Sites[j].Ready; newStart < rdy {
			newStart = rdy
		}
		if newStart > b.latest[k] {
			return 0, false
		}
		push = newStart - b.starts[k]
		if push < 0 {
			push = 0
		}
	}
	c11 := in.Dist(i, u) + in.Dist(j, u) - p.Mu*in.Dist(i, j)
	return p.Alpha1*c11 + (1-p.Alpha1)*push, true
}

func insertAt(route []int, pos, c int) []int {
	route = append(route, 0)
	copy(route[pos+1:], route[pos:])
	route[pos] = c
	return route
}
