// Greedy re-insertion of orphaned customers, used by the dynamic
// (online) subsystem when an instance mutation leaves a customer without
// a route: a newly arrived customer, or one ejected because its route's
// demand no longer fits the vehicle. The scoring reuses I1's insertion
// machinery (bounds.cheapest over the forward/backward schedule bounds)
// with the classic parameterization, so the choice is deterministic in
// (instance, routes, customer).
package construct

import (
	"math"

	"repro/internal/vrptw"
)

// Reinsert returns routes with customer u inserted at its cheapest
// feasible position across all routes, and the index of the route that
// changed. The input routes are not modified: the touched route is a
// fresh slice, every other route is shared.
//
// The fallback ladder keeps re-insertion total: when no time-window
// feasible position exists the customer gets a new route if the fleet
// allows, then the capacity-respecting position with the smallest added
// travel (tardiness becomes the search's problem — it is an objective,
// not a constraint), and as a last resort the least-loaded route's best
// position. Every rung breaks ties on (route, position), so replays are
// bit-identical.
func Reinsert(in *vrptw.Instance, routes [][]int, u int) ([][]int, int) {
	p := DefaultParams()
	demand := in.Sites[u].Demand

	bestC1, bestRoute, bestPos := math.Inf(1), -1, -1
	var b bounds
	for ri, route := range routes {
		var load float64
		for _, c := range route {
			load += in.Sites[c].Demand
		}
		if load+demand > in.Capacity {
			continue
		}
		b.fill(in, route)
		c1, pos, feas := b.cheapest(in, p, route, u, 0, len(route)+1)
		if feas && c1 < bestC1 {
			bestC1, bestRoute, bestPos = c1, ri, pos
		}
	}
	if bestRoute >= 0 {
		return replaceRoute(routes, bestRoute, bestPos, u), bestRoute
	}

	if len(routes) < in.Vehicles {
		out := make([][]int, len(routes)+1)
		copy(out, routes)
		out[len(routes)] = []int{u}
		return out, len(routes)
	}

	// No feasible position and no spare vehicle: take the smallest
	// added-travel position in a route with capacity room, ignoring time
	// windows.
	bestAdd, bestRoute, bestPos := math.Inf(1), -1, -1
	leastLoad, leastRoute := math.Inf(1), -1
	for ri, route := range routes {
		var load float64
		for _, c := range route {
			load += in.Sites[c].Demand
		}
		if load < leastLoad {
			leastLoad, leastRoute = load, ri
		}
		if load+demand > in.Capacity {
			continue
		}
		add, pos := cheapestDetour(in, route, u)
		if add < bestAdd {
			bestAdd, bestRoute, bestPos = add, ri, pos
		}
	}
	if bestRoute < 0 {
		// Even capacity has no room anywhere: overload the least-loaded
		// route rather than lose the customer. Extremely rare (total
		// demand within fleet capacity is an instance invariant), and
		// deterministic.
		bestRoute = leastRoute
		_, bestPos = cheapestDetour(in, routes[bestRoute], u)
	}
	return replaceRoute(routes, bestRoute, bestPos, u), bestRoute
}

// cheapestDetour returns the insertion position of u in route minimizing
// the added travel distance, windows ignored.
func cheapestDetour(in *vrptw.Instance, route []int, u int) (add float64, pos int) {
	add, pos = math.Inf(1), 0
	for k := 0; k <= len(route); k++ {
		i := 0
		if k > 0 {
			i = route[k-1]
		}
		j := 0
		if k < len(route) {
			j = route[k]
		}
		if a := in.Dist(i, u) + in.Dist(u, j) - in.Dist(i, j); a < add {
			add, pos = a, k
		}
	}
	return add, pos
}

// replaceRoute returns routes with u inserted at position pos of route ri,
// sharing every untouched route.
func replaceRoute(routes [][]int, ri, pos, u int) [][]int {
	out := make([][]int, len(routes))
	copy(out, routes)
	r := routes[ri]
	nr := make([]int, 0, len(r)+1)
	nr = append(nr, r[:pos]...)
	nr = append(nr, u)
	nr = append(nr, r[pos:]...)
	out[ri] = nr
	return out
}
