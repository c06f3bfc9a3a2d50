package operators

import (
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/vrptw"
)

// This file contains operators beyond the paper's five — the classic VRPTW
// moves its references catalogue (Bräysy & Gendreau 2005): variable-length
// Or-opt, relocation into a fresh route, and CrossExchange. They are not
// part of All(); compose them with Extended() for experiments on richer
// neighborhoods.

// Extended returns the paper's five operators plus the extension set.
func Extended() []MoveKind {
	return append(All(), KindOrOptN, KindRelocateNew, KindCrossExchange)
}

// maxSegLen bounds the segment lengths of the general Or-opt and of
// CrossExchange; 3 is the classic choice.
const maxSegLen = 3

// Extension operator tags continue the attribute tag space of moves.go.
const (
	tagOrOptN = iota + 16
	tagRelocateNew
	tagCrossExchange
)

type orOptNMove struct {
	route, seg, length, dst int
	c1, c2                  int
}

// proposeOrOptN is KindOrOptN's full-neighborhood proposal.
func proposeOrOptN(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	arcs := in.ArcBits()
	for try := 0; try < proposeAttempts; try++ {
		ri := r.Intn(len(s.Routes))
		route := s.Routes[ri]
		length := 1 + r.Intn(maxSegLen)
		if len(route) < length+1 {
			continue
		}
		seg := r.Intn(len(route) - length + 1)
		dst := r.Intn(len(route) - length + 1)
		if dst == seg {
			continue
		}
		c1, c2 := route[seg], route[seg+length-1]
		if !arcs.OK(before(route, seg), after(route, seg+length-1)) {
			continue
		}
		prev := 0
		if dst > 0 {
			prev = remAt(route, seg, length, dst-1)
		}
		if !arcs.OK(prev, c1) {
			continue
		}
		next := 0
		if dst < len(route)-length {
			next = remAt(route, seg, length, dst)
		}
		if !arcs.OK(c2, next) {
			continue
		}
		return MoveData{Kind: KindOrOptN, A: int32(ri), B: int32(seg), C: int32(length), D: int32(dst), E: int32(c1), F: int32(c2)}, true
	}
	return MoveData{}, false
}

func (m orOptNMove) Apply(in *vrptw.Instance, s *solution.Solution) *solution.Solution {
	route := s.Routes[m.route]
	segment := route[m.seg : m.seg+m.length]
	rem := concat(route[:m.seg], route[m.seg+m.length:])
	nr := concat(rem[:m.dst], segment, rem[m.dst:])
	return s.WithRoutes(in, []int{m.route}, [][]int{nr})
}

func (m orOptNMove) Attribute() tabu.Attribute { return attribute(tagOrOptN, m.c1, m.c2) }

type relocateNewMove struct {
	from, fpos int
	cust       int
}

// proposeRelocateNew is KindRelocateNew's full-neighborhood proposal.
func proposeRelocateNew(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) >= in.Vehicles {
		return MoveData{}, false // fleet exhausted
	}
	arcs := in.ArcBits()
	for try := 0; try < proposeAttempts; try++ {
		from := r.Intn(len(s.Routes))
		rf := s.Routes[from]
		if len(rf) < 2 {
			continue // moving a singleton would just relabel the route
		}
		fpos := r.Intn(len(rf))
		cust := rf[fpos]
		if !arcs.OK(before(rf, fpos), after(rf, fpos)) {
			continue
		}
		if !arcs.OK(0, cust) {
			continue
		}
		return MoveData{Kind: KindRelocateNew, A: int32(from), B: int32(fpos), C: int32(cust)}, true
	}
	return MoveData{}, false
}

func (m relocateNewMove) Apply(in *vrptw.Instance, s *solution.Solution) *solution.Solution {
	rf := s.Routes[m.from]
	nf := concat(rf[:m.fpos], rf[m.fpos+1:])
	next := s.WithRoutes(in, []int{m.from}, [][]int{nf})
	// Append the fresh singleton route.
	routes := append(next.Routes, []int{m.cust})
	d, t, l := solution.RouteMetrics(in, routes[len(routes)-1])
	next.Routes = routes
	next.Dist = append(next.Dist, d)
	next.Tard = append(next.Tard, t)
	next.Load = append(next.Load, l)
	next.Obj.Distance += d
	next.Obj.Tardiness += t
	next.Obj.Vehicles++
	return next
}

func (m relocateNewMove) Attribute() tabu.Attribute { return attribute(tagRelocateNew, m.cust, 0) }

type crossExchangeMove struct {
	r1, p1, l1 int
	r2, p2, l2 int
	a1, a2     int // leading customers, for the attribute
}

// proposeCrossExchange is KindCrossExchange's full-neighborhood proposal.
func proposeCrossExchange(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	arcs := in.ArcBits()
	for try := 0; try < proposeAttempts; try++ {
		r1 := r.Intn(len(s.Routes))
		r2 := r.Intn(len(s.Routes))
		if r1 == r2 {
			continue
		}
		a, b := s.Routes[r1], s.Routes[r2]
		l1 := 1 + r.Intn(maxSegLen)
		l2 := 1 + r.Intn(maxSegLen)
		if len(a) < l1 || len(b) < l2 {
			continue
		}
		p1 := r.Intn(len(a) - l1 + 1)
		p2 := r.Intn(len(b) - l2 + 1)
		load1 := s.Load[r1] - segLoad(in, a[p1:p1+l1]) + segLoad(in, b[p2:p2+l2])
		load2 := s.Load[r2] - segLoad(in, b[p2:p2+l2]) + segLoad(in, a[p1:p1+l1])
		if load1 > in.Capacity || load2 > in.Capacity {
			continue
		}
		// New arcs around both transplanted segments.
		if !arcs.OK(before(a, p1), b[p2]) || !arcs.OK(b[p2+l2-1], after(a, p1+l1-1)) {
			continue
		}
		if !arcs.OK(before(b, p2), a[p1]) || !arcs.OK(a[p1+l1-1], after(b, p2+l2-1)) {
			continue
		}
		return MoveData{Kind: KindCrossExchange, A: int32(r1), B: int32(p1), C: int32(l1), D: int32(r2), E: int32(p2), F: int32(l2), G: int32(a[p1]), H: int32(b[p2])}, true
	}
	return MoveData{}, false
}

func segLoad(in *vrptw.Instance, seg []int) float64 {
	var l float64
	for _, c := range seg {
		l += in.Sites[c].Demand
	}
	return l
}

func (m crossExchangeMove) Apply(in *vrptw.Instance, s *solution.Solution) *solution.Solution {
	a, b := s.Routes[m.r1], s.Routes[m.r2]
	na := concat(a[:m.p1], b[m.p2:m.p2+m.l2], a[m.p1+m.l1:])
	nb := concat(b[:m.p2], a[m.p1:m.p1+m.l1], b[m.p2+m.l2:])
	return s.WithRoutes(in, []int{m.r1, m.r2}, [][]int{na, nb})
}

func (m crossExchangeMove) Attribute() tabu.Attribute {
	lo, hi := m.a1, m.a2
	if lo > hi {
		lo, hi = hi, lo
	}
	return attribute(tagCrossExchange, lo, hi)
}
