package construct

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// This file freezes Solomon's I1 as it stood before the construction kept
// its unrouted customers in a slice: a map of unrouted customers iterated
// in Go's random map order (the tie-breaks on the lower customer ID make
// the pick independent of that order) and fresh schedule arrays for every
// insertion round. TestI1MatchesReference holds the production I1 to this
// copy route for route and bit for bit. Do not edit the copy.

// refI1 constructs a complete solution for the instance.
func refI1(in *vrptw.Instance, p Params) *solution.Solution {
	unrouted := make(map[int]bool, in.N())
	for c := 1; c <= in.N(); c++ {
		unrouted[c] = true
	}
	var routes [][]int
	for len(unrouted) > 0 {
		seed := refPickSeed(in, unrouted, p.SeedFar)
		delete(unrouted, seed)
		route := []int{seed}
		load := in.Sites[seed].Demand
		for {
			u, pos, ok := refBestInsertion(in, p, route, load, unrouted)
			if !ok {
				break
			}
			route = refInsertAt(route, pos, u)
			load += in.Sites[u].Demand
			delete(unrouted, u)
		}
		routes = append(routes, route)
	}
	return solution.New(in, routes)
}

// refPickSeed returns the unrouted customer that is farthest from the depot
// or has the earliest due date, per the seed rule.
func refPickSeed(in *vrptw.Instance, unrouted map[int]bool, far bool) int {
	best, bestVal := -1, 0.0
	for c := range unrouted {
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

// refBestInsertion finds the unrouted customer with the maximum savings c2 and
// its cheapest feasible insertion position. ok is false when no customer
// has any feasible position.
func refBestInsertion(in *vrptw.Instance, p Params, route []int, load float64, unrouted map[int]bool) (cust, pos int, ok bool) {
	starts, latest := refScheduleBounds(in, route)
	bestC2 := math.Inf(-1)
	cust, pos = -1, -1
	for u := range unrouted {
		if load+in.Sites[u].Demand > in.Capacity {
			continue
		}
		c1, bp, feas := refCheapestPosition(in, p, route, starts, latest, u)
		if !feas {
			continue
		}
		c2 := p.Lambda*in.Dist(0, u) - c1
		// Deterministic tie-break on customer ID keeps runs reproducible
		// across map iteration orders.
		if c2 > bestC2 || (c2 == bestC2 && (cust == -1 || u < cust)) {
			bestC2, cust, pos = c2, u, bp
		}
	}
	return cust, pos, cust >= 0
}

// refScheduleBounds returns, for the current route, the service start times
// (forward pass) and the latest allowable start times that keep the whole
// suffix — including the depot return — within its windows (backward pass).
func refScheduleBounds(in *vrptw.Instance, route []int) (starts, latest []float64) {
	starts = make([]float64, len(route))
	t := in.Sites[0].Ready
	prev := 0
	for k, c := range route {
		t += in.Dist(prev, c)
		if rdy := in.Sites[c].Ready; t < rdy {
			t = rdy
		}
		starts[k] = t
		t += in.Sites[c].Service
		prev = c
	}
	latest = make([]float64, len(route))
	lnext := in.Horizon() // latest arrival back at the depot
	next := 0
	for k := len(route) - 1; k >= 0; k-- {
		c := route[k]
		l := lnext - in.Dist(c, next) - in.Sites[c].Service
		if due := in.Sites[c].Due; l > due {
			l = due
		}
		latest[k] = l
		lnext = l
		next = c
	}
	return starts, latest
}

// refCheapestPosition scores every insertion position of u in route and
// returns the smallest c1 and its position; feas is false when no position
// is time-window feasible.
func refCheapestPosition(in *vrptw.Instance, p Params, route []int, starts, latest []float64, u int) (c1 float64, pos int, feas bool) {
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

func refInsertAt(route []int, pos, c int) []int {
	route = append(route, 0)
	copy(route[pos+1:], route[pos:])
	route[pos] = c
	return route
}

// TestI1MatchesReference runs I1 and its frozen reference on every
// instance class at three sizes, four instance seeds each, under four
// RandomParams draws per instance, and requires identical routes and
// identical objective bits.
func TestI1MatchesReference(t *testing.T) {
	classes := []vrptw.Class{vrptw.R1, vrptw.C1, vrptw.RC1, vrptw.R2, vrptw.C2, vrptw.RC2}
	for _, class := range classes {
		for _, n := range []int{10, 100, 400} {
			for seed := uint64(1); seed <= 4; seed++ {
				in, err := vrptw.Generate(vrptw.GenConfig{Class: class, N: n, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(seed * 31)
				for draw := 0; draw < 4; draw++ {
					p := RandomParams(r)
					got, want := I1(in, p), refI1(in, p)
					if !sameRoutes(got, want) {
						t.Fatalf("%v N=%d seed %d params %+v: routes differ from the reference\n got %v\nwant %v",
							class, n, seed, p, got.Routes, want.Routes)
					}
					if math.Float64bits(got.Obj.Distance) != math.Float64bits(want.Obj.Distance) ||
						math.Float64bits(got.Obj.Tardiness) != math.Float64bits(want.Obj.Tardiness) ||
						got.Obj.Vehicles != want.Obj.Vehicles {
						t.Fatalf("%v N=%d seed %d params %+v: objectives %+v, reference %+v",
							class, n, seed, p, got.Obj, want.Obj)
					}
				}
			}
		}
	}
}

func sameRoutes(a, b *solution.Solution) bool {
	if len(a.Routes) != len(b.Routes) {
		return false
	}
	for i := range a.Routes {
		if len(a.Routes[i]) != len(b.Routes[i]) {
			return false
		}
		for j := range a.Routes[i] {
			if a.Routes[i][j] != b.Routes[i][j] {
				return false
			}
		}
	}
	return true
}
