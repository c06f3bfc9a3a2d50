package operators

import (
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/vrptw"
)

// relocateMove is the decoded view of a KindRelocate MoveData; it and the
// other per-kind structs below hold the Apply, Delta and Attribute bodies
// that MoveData dispatches to.
type relocateMove struct {
	from, fpos int // donor route index and customer position
	to, tpos   int // receiving route index and insertion position
	cust       int
}

// proposeRelocate is KindRelocate's full-neighborhood proposal.
func proposeRelocate(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	arcs := in.ArcBits()
	for try := 0; try < proposeAttempts; try++ {
		from := r.Intn(len(s.Routes))
		to := r.Intn(len(s.Routes))
		if from == to {
			continue
		}
		rf, rt := s.Routes[from], s.Routes[to]
		fpos := r.Intn(len(rf))
		cust := rf[fpos]
		if s.Load[to]+in.Sites[cust].Demand > in.Capacity {
			continue
		}
		tpos := r.Intn(len(rt) + 1)
		// Arcs created: gap closure in donor, insertion arcs in receiver.
		if !arcs.OK(before(rf, fpos), after(rf, fpos)) {
			continue
		}
		if !arcs.OK(before(rt, tpos), cust) {
			continue
		}
		next := 0
		if tpos < len(rt) {
			next = rt[tpos]
		}
		if !arcs.OK(cust, next) {
			continue
		}
		return MoveData{Kind: KindRelocate, A: int32(from), B: int32(fpos), C: int32(to), D: int32(tpos), E: int32(cust)}, true
	}
	return MoveData{}, false
}

func (m relocateMove) Apply(in *vrptw.Instance, s *solution.Solution) *solution.Solution {
	rf, rt := s.Routes[m.from], s.Routes[m.to]
	nf := concat(rf[:m.fpos], rf[m.fpos+1:])
	nt := concat(rt[:m.tpos], []int{m.cust}, rt[m.tpos:])
	return s.WithRoutes(in, []int{m.from, m.to}, [][]int{nf, nt})
}

func (m relocateMove) Attribute() tabu.Attribute { return attribute(tagRelocate, m.cust, 0) }

type exchangeMove struct {
	r1, p1 int
	r2, p2 int
	c1, c2 int
}

// proposeExchange is KindExchange's full-neighborhood proposal.
func proposeExchange(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
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
		p1 := r.Intn(len(a))
		p2 := r.Intn(len(b))
		c1, c2 := a[p1], b[p2]
		d1, d2 := in.Sites[c1].Demand, in.Sites[c2].Demand
		if s.Load[r1]-d1+d2 > in.Capacity || s.Load[r2]-d2+d1 > in.Capacity {
			continue
		}
		if !arcs.OK(before(a, p1), c2) || !arcs.OK(c2, after(a, p1)) {
			continue
		}
		if !arcs.OK(before(b, p2), c1) || !arcs.OK(c1, after(b, p2)) {
			continue
		}
		return MoveData{Kind: KindExchange, A: int32(r1), B: int32(p1), C: int32(r2), D: int32(p2), E: int32(c1), F: int32(c2)}, true
	}
	return MoveData{}, false
}

func (m exchangeMove) Apply(in *vrptw.Instance, s *solution.Solution) *solution.Solution {
	a := concat(s.Routes[m.r1])
	b := concat(s.Routes[m.r2])
	a[m.p1], b[m.p2] = m.c2, m.c1
	return s.WithRoutes(in, []int{m.r1, m.r2}, [][]int{a, b})
}

func (m exchangeMove) Attribute() tabu.Attribute {
	lo, hi := m.c1, m.c2
	if lo > hi {
		lo, hi = hi, lo
	}
	return attribute(tagExchange, lo, hi)
}

type twoOptMove struct {
	route, i, j int // reverse positions i..j inclusive, i < j
	ci, cj      int
}

// proposeTwoOpt is KindTwoOpt's full-neighborhood proposal.
func proposeTwoOpt(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	arcs := in.ArcBits()
	for try := 0; try < proposeAttempts; try++ {
		ri := r.Intn(len(s.Routes))
		route := s.Routes[ri]
		if len(route) < 2 {
			continue
		}
		i := r.Intn(len(route) - 1)
		j := i + 1 + r.Intn(len(route)-i-1)
		// Arcs created: (before(i), c_j) and (c_i, after(j)).
		if !arcs.OK(before(route, i), route[j]) {
			continue
		}
		if !arcs.OK(route[i], after(route, j)) {
			continue
		}
		return MoveData{Kind: KindTwoOpt, A: int32(ri), B: int32(i), C: int32(j), D: int32(route[i]), E: int32(route[j])}, true
	}
	return MoveData{}, false
}

func (m twoOptMove) Apply(in *vrptw.Instance, s *solution.Solution) *solution.Solution {
	route := s.Routes[m.route]
	nr := concat(route)
	for a, b := m.i, m.j; a < b; a, b = a+1, b-1 {
		nr[a], nr[b] = nr[b], nr[a]
	}
	return s.WithRoutes(in, []int{m.route}, [][]int{nr})
}

func (m twoOptMove) Attribute() tabu.Attribute {
	lo, hi := m.ci, m.cj
	if lo > hi {
		lo, hi = hi, lo
	}
	return attribute(tagTwoOpt, lo, hi)
}

type twoOptStarMove struct {
	r1, p1 int // cut positions: route[:p] keeps, route[p:] swaps
	r2, p2 int
	a1, a2 int // customers adjacent to the new arcs, for the attribute
}

// proposeTwoOptStar is KindTwoOptStar's full-neighborhood proposal.
func proposeTwoOptStar(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
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
		p1 := r.Intn(len(a) + 1)
		p2 := r.Intn(len(b) + 1)
		if p1 == 0 && p2 == 0 || p1 == len(a) && p2 == len(b) {
			continue // relabels routes without changing the solution
		}
		load1 := prefixLoad(in, a, p1) + s.Load[r2] - prefixLoad(in, b, p2)
		load2 := prefixLoad(in, b, p2) + s.Load[r1] - prefixLoad(in, a, p1)
		if load1 > in.Capacity || load2 > in.Capacity {
			continue
		}
		// New arcs: (a[p1-1] or depot) -> (b[p2] or depot) and vice versa.
		tail1head := 0
		if p2 < len(b) {
			tail1head = b[p2]
		}
		tail2head := 0
		if p1 < len(a) {
			tail2head = a[p1]
		}
		if !arcs.OK(before(a, p1), tail1head) || !arcs.OK(before(b, p2), tail2head) {
			continue
		}
		return MoveData{Kind: KindTwoOptStar, A: int32(r1), B: int32(p1), C: int32(r2), D: int32(p2), E: int32(before(a, p1)), F: int32(before(b, p2))}, true
	}
	return MoveData{}, false
}

func prefixLoad(in *vrptw.Instance, route []int, p int) float64 {
	var l float64
	for _, c := range route[:p] {
		l += in.Sites[c].Demand
	}
	return l
}

func (m twoOptStarMove) Apply(in *vrptw.Instance, s *solution.Solution) *solution.Solution {
	a, b := s.Routes[m.r1], s.Routes[m.r2]
	na := concat(a[:m.p1], b[m.p2:])
	nb := concat(b[:m.p2], a[m.p1:])
	return s.WithRoutes(in, []int{m.r1, m.r2}, [][]int{na, nb})
}

func (m twoOptStarMove) Attribute() tabu.Attribute {
	lo, hi := m.a1, m.a2
	if lo > hi {
		lo, hi = hi, lo
	}
	return attribute(tagTwoOptStar, lo, hi)
}

type orOptMove struct {
	route  int
	seg    int // segment start position (length 2)
	dst    int // insertion position in the route with the segment removed
	c1, c2 int
}

// proposeOrOpt is KindOrOpt's full-neighborhood proposal.
func proposeOrOpt(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	arcs := in.ArcBits()
	for try := 0; try < proposeAttempts; try++ {
		ri := r.Intn(len(s.Routes))
		route := s.Routes[ri]
		if len(route) < 3 {
			continue
		}
		seg := r.Intn(len(route) - 1) // segment = route[seg], route[seg+1]
		dst := r.Intn(len(route) - 1) // position in the len-2 remainder
		if dst == seg {
			continue // would reinsert in place
		}
		c1, c2 := route[seg], route[seg+1]
		// Arcs created: gap closure and the two insertion arcs. The
		// insertion neighbors are read off the original route (remAt)
		// instead of building the remainder — this runs on every attempt
		// of the innermost propose loop.
		if !arcs.OK(before(route, seg), after(route, seg+1)) {
			continue
		}
		prev := 0
		if dst > 0 {
			prev = remAt(route, seg, 2, dst-1)
		}
		if !arcs.OK(prev, c1) {
			continue
		}
		next := 0
		if dst < len(route)-2 {
			next = remAt(route, seg, 2, dst)
		}
		if !arcs.OK(c2, next) {
			continue
		}
		return MoveData{Kind: KindOrOpt, A: int32(ri), B: int32(seg), C: int32(dst), D: int32(c1), E: int32(c2)}, true
	}
	return MoveData{}, false
}

func (m orOptMove) Apply(in *vrptw.Instance, s *solution.Solution) *solution.Solution {
	route := s.Routes[m.route]
	rem := concat(route[:m.seg], route[m.seg+2:])
	nr := concat(rem[:m.dst], []int{m.c1, m.c2}, rem[m.dst:])
	return s.WithRoutes(in, []int{m.route}, [][]int{nr})
}

func (m orOptMove) Attribute() tabu.Attribute { return attribute(tagOrOpt, m.c1, m.c2) }
