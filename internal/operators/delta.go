package operators

// Delta implementations of every move: the objective change is computed
// from the proposing solution's schedule cache by splicing cached route
// segments (solution.Eval.SpliceMetrics) instead of materializing routes.
// Each delta subtracts the touched routes' cached distance/tardiness from
// the solution objectives and adds the spliced replacements; vehicle-count
// changes follow from emptied (or created) routes. Apply remains the
// materialization path and must agree with Delta to within floating-point
// noise — the property tests in delta_test.go enforce 1e-9.

import (
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// spliceInto replaces route r's cached metrics in obj with those of the
// route spliced from segs; empty segs remove the route from the vehicle
// count.
func spliceInto(obj *solution.Objectives, in *vrptw.Instance, s *solution.Solution, e *solution.Eval, r int, segs ...solution.Seg) {
	if len(segs) == 0 {
		obj.Distance -= s.Dist[r]
		obj.Tardiness -= s.Tard[r]
		obj.Vehicles--
		return
	}
	d, t := e.SpliceMetrics(in, segs...)
	replaceRoute(obj, s, r, d, t)
}

// replaceRoute replaces route r's cached metrics in obj with dist and
// tard, the metrics of its replacement.
func replaceRoute(obj *solution.Objectives, s *solution.Solution, r int, dist, tard float64) {
	obj.Distance -= s.Dist[r]
	obj.Tardiness -= s.Tard[r]
	obj.Distance += dist
	obj.Tardiness += tard
}

// The two single-customer moves splice through Eval's insert, replace and
// remove entry points, which walk the same arithmetic as SpliceMetrics on
// the equivalent segments without building them.

func (m relocateMove) Delta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval) solution.Objectives {
	obj := s.Obj
	if len(s.Routes[m.from]) == 1 {
		spliceInto(&obj, in, s, e, m.from)
	} else {
		d, t := e.RemoveMetrics(in, m.from, m.fpos)
		replaceRoute(&obj, s, m.from, d, t)
	}
	d, t := e.InsertMetrics(in, m.to, m.tpos, m.cust)
	replaceRoute(&obj, s, m.to, d, t)
	return obj
}

func (m exchangeMove) Delta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval) solution.Objectives {
	obj := s.Obj
	d, t := e.ReplaceMetrics(in, m.r1, m.p1, m.c2)
	replaceRoute(&obj, s, m.r1, d, t)
	d, t = e.ReplaceMetrics(in, m.r2, m.p2, m.c1)
	replaceRoute(&obj, s, m.r2, d, t)
	return obj
}

func (m twoOptMove) Delta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval) solution.Objectives {
	route := s.Routes[m.route]
	obj := s.Obj
	spliceInto(&obj, in, s, e, m.route,
		solution.Piece(m.route, 0, m.i),
		solution.ReversedPiece(m.route, m.i, m.j+1),
		solution.Piece(m.route, m.j+1, len(route)))
	return obj
}

func (m twoOptStarMove) Delta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval) solution.Objectives {
	a, b := s.Routes[m.r1], s.Routes[m.r2]
	obj := s.Obj
	if m.p1 == 0 && m.p2 == len(b) {
		spliceInto(&obj, in, s, e, m.r1) // a's head and b's tail are both empty
	} else {
		spliceInto(&obj, in, s, e, m.r1,
			solution.Piece(m.r1, 0, m.p1),
			solution.Piece(m.r2, m.p2, len(b)))
	}
	if m.p2 == 0 && m.p1 == len(a) {
		spliceInto(&obj, in, s, e, m.r2)
	} else {
		spliceInto(&obj, in, s, e, m.r2,
			solution.Piece(m.r2, 0, m.p2),
			solution.Piece(m.r1, m.p1, len(a)))
	}
	return obj
}

func (m orOptMove) Delta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval) solution.Objectives {
	return orOptDelta(in, s, e, m.route, m.seg, 2, m.dst)
}

// orOptDelta computes the delta of moving the length-l segment starting at
// seg to position dst of the remainder, expressed entirely in original
// route coordinates so every piece can come from the schedule cache.
func orOptDelta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval, route, seg, l, dst int) solution.Objectives {
	k := len(s.Routes[route])
	obj := s.Obj
	if dst < seg {
		spliceInto(&obj, in, s, e, route,
			solution.Piece(route, 0, dst),
			solution.Piece(route, seg, seg+l),
			solution.Piece(route, dst, seg),
			solution.Piece(route, seg+l, k))
	} else {
		spliceInto(&obj, in, s, e, route,
			solution.Piece(route, 0, seg),
			solution.Piece(route, seg+l, dst+l),
			solution.Piece(route, seg, seg+l),
			solution.Piece(route, dst+l, k))
	}
	return obj
}

func (m orOptNMove) Delta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval) solution.Objectives {
	return orOptDelta(in, s, e, m.route, m.seg, m.length, m.dst)
}

func (m relocateNewMove) Delta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval) solution.Objectives {
	rf := s.Routes[m.from]
	obj := s.Obj
	spliceInto(&obj, in, s, e, m.from,
		solution.Piece(m.from, 0, m.fpos),
		solution.Piece(m.from, m.fpos+1, len(rf)))
	d, t := e.SpliceMetrics(in, solution.Single(m.cust))
	obj.Distance += d
	obj.Tardiness += t
	obj.Vehicles++
	return obj
}

func (m crossExchangeMove) Delta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval) solution.Objectives {
	a, b := s.Routes[m.r1], s.Routes[m.r2]
	obj := s.Obj
	spliceInto(&obj, in, s, e, m.r1,
		solution.Piece(m.r1, 0, m.p1),
		solution.Piece(m.r2, m.p2, m.p2+m.l2),
		solution.Piece(m.r1, m.p1+m.l1, len(a)))
	spliceInto(&obj, in, s, e, m.r2,
		solution.Piece(m.r2, 0, m.p2),
		solution.Piece(m.r1, m.p1, m.p1+m.l1),
		solution.Piece(m.r2, m.p2+m.l2, len(b)))
	return obj
}
