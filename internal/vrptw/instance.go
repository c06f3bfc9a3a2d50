// Package vrptw models the Capacitated Vehicle Routing Problem with Time
// Windows (CVRPTW) as used in Beham (IPPS 2007): a single depot, a
// homogeneous fleet with a shared capacity, Euclidean travel costs, and a
// [ready, due] service window plus a service duration per customer.
//
// The package provides the immutable problem description (Instance), a
// generator for extended-Solomon-style instances (generator.go) standing in
// for the Homberger 400/600-city problem set, and a reader/writer for the
// classic Solomon text format (solomon.go).
package vrptw

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Site describes the depot (index 0) or a customer (indices 1..N).
// For the depot, Demand and Service are zero and [Ready, Due] is the
// scheduling horizon: a vehicle may not leave before Ready and arriving back
// after Due counts as tardiness.
type Site struct {
	ID      int     // index into Instance.Sites; 0 is the depot
	X, Y    float64 // Euclidean coordinates
	Demand  float64 // goods to deliver; 0 for the depot
	Ready   float64 // earliest service start (a_i)
	Due     float64 // latest service start without tardiness (b_i)
	Service float64 // service duration (c_i)
}

// Instance is an immutable CVRPTW problem description. Construct it with
// New (or the generator / Solomon parser) so that the coordinate and
// departure tables and validation are in place; do not mutate Sites
// afterwards.
type Instance struct {
	Name     string
	Sites    []Site  // Sites[0] is the depot
	Vehicles int     // R, the maximum fleet size
	Capacity float64 // m, shared by the homogeneous fleet

	xy          []point   // per-site coordinates, the operands of Dist
	departReady []float64 // a_i + c_i per site: earliest possible departure

	// Lazily-built granular neighbor lists, cached per k, and the arc
	// bitset (neighbors.go), both built under nbrMu.
	nbrMu sync.Mutex
	nbrs  map[int]*NeighborLists
	arcs  atomic.Pointer[ArcBits]
}

// New builds an Instance from the given sites, validates it, and
// tabulates their coordinates and earliest departures. The sites slice is
// retained.
func New(name string, sites []Site, vehicles int, capacity float64) (*Instance, error) {
	in := &Instance{Name: name, Sites: sites, Vehicles: vehicles, Capacity: capacity}
	if err := in.validate(); err != nil {
		return nil, err
	}
	in.xy = make([]point, len(sites))
	in.departReady = make([]float64, len(sites))
	for i, s := range sites {
		in.xy[i] = point{s.X, s.Y}
		in.departReady[i] = s.Ready + s.Service
	}
	return in, nil
}

func (in *Instance) validate() error {
	if len(in.Sites) < 2 {
		return errors.New("vrptw: instance needs a depot and at least one customer")
	}
	if in.Vehicles < 1 {
		return fmt.Errorf("vrptw: instance needs at least one vehicle, got %d", in.Vehicles)
	}
	if !(in.Capacity > 0) || math.IsInf(in.Capacity, 0) {
		return fmt.Errorf("vrptw: capacity must be positive and finite, got %g", in.Capacity)
	}
	depot := in.Sites[0]
	if depot.Demand != 0 {
		return fmt.Errorf("vrptw: depot demand must be 0, got %g", depot.Demand)
	}
	var total float64
	for i, s := range in.Sites {
		if s.ID != i {
			return fmt.Errorf("vrptw: site %d has ID %d; IDs must equal slice index", i, s.ID)
		}
		// NaN fails every comparison, so a NaN window would pass each
		// time-window test below and in the search; an infinite field
		// turns distances and schedules into Inf − Inf.
		for _, v := range [...]float64{s.X, s.Y, s.Demand, s.Ready, s.Due, s.Service} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("vrptw: site %d has a non-finite field (%g)", i, v)
			}
		}
		if s.Ready < 0 || s.Due < s.Ready {
			return fmt.Errorf("vrptw: site %d has invalid window [%g, %g]", i, s.Ready, s.Due)
		}
		if s.Service < 0 {
			return fmt.Errorf("vrptw: site %d has negative service time %g", i, s.Service)
		}
		if i > 0 {
			if s.Demand < 0 {
				return fmt.Errorf("vrptw: customer %d has negative demand %g", i, s.Demand)
			}
			if s.Demand > in.Capacity {
				return fmt.Errorf("vrptw: customer %d demand %g exceeds vehicle capacity %g", i, s.Demand, in.Capacity)
			}
			total += s.Demand
		}
	}
	if total > float64(in.Vehicles)*in.Capacity {
		return fmt.Errorf("vrptw: total demand %g exceeds fleet capacity %g", total, float64(in.Vehicles)*in.Capacity)
	}
	return nil
}

// N returns the number of customers (excluding the depot).
func (in *Instance) N() int { return len(in.Sites) - 1 }

// PermLen returns L = N + R + 1, the length of the paper's permutation
// encoding of a solution.
func (in *Instance) PermLen() int { return in.N() + in.Vehicles + 1 }

// Dist returns the Euclidean travel cost (= travel time) between sites i
// and j, computed from their coordinates on every call. It is bitwise
// symmetric: a−b is exactly −(b−a), so both orientations square the same
// values.
func (in *Instance) Dist(i, j int) float64 { return in.xy[i].dist(in.xy[j]) }

// point is a site's coordinates. An instance keeps them apart from Sites,
// 16 bytes a site, so that distances read one compact slice.
type point struct{ x, y float64 }

// dist is the Euclidean distance between p and q: the one definition of
// travel cost that Dist, the arc bitset, the granular lists and the
// generator's windows all compute.
func (p point) dist(q point) float64 {
	dx, dy := p.x-q.x, p.y-q.y
	return math.Sqrt(dx*dx + dy*dy)
}

// DepartReady returns the earliest time a vehicle can leave site i: the
// window start plus the service time (the depot has zero service). It is
// precomputed because the operators' local feasibility test evaluates it in
// their innermost propose loops.
func (in *Instance) DepartReady(i int) float64 { return in.departReady[i] }

// Horizon returns the depot due date, i.e. the end of the scheduling
// horizon.
func (in *Instance) Horizon() float64 { return in.Sites[0].Due }

// TotalDemand returns the sum of all customer demands.
func (in *Instance) TotalDemand() float64 {
	var t float64
	for _, s := range in.Sites[1:] {
		t += s.Demand
	}
	return t
}

// MinVehicles returns the capacity lower bound ceil(totalDemand/capacity)
// on the number of vehicles any feasible solution must deploy.
func (in *Instance) MinVehicles() int {
	return int(math.Ceil(in.TotalDemand() / in.Capacity))
}

// Reachable reports whether customer i can be serviced without tardiness by
// a vehicle driving directly from the depot at the depot's ready time.
func (in *Instance) Reachable(i int) bool {
	arrive := in.Sites[0].Ready + in.Dist(0, i)
	return arrive <= in.Sites[i].Due
}
