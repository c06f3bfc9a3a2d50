package operators

import (
	"testing"

	"repro/internal/construct"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// This file freezes the granular proposal paths as they stood before the
// customer table and the arc bitset: a two-array position index, the
// local feasibility test evaluated from the instance data on every call,
// c2's neighbors read through its route slice, and a position-walking
// prefix load for 2-opt*. FuzzGranularMatchesReference holds the
// production proposers to these copies move for move and RNG draw for RNG
// draw, so a change to the proposers' check order or bookkeeping cannot
// change the search trajectory unnoticed. Do not edit the copies.

const refProposeAttempts = 30

// refArcOK is the local feasibility test of a created arc i -> j.
func refArcOK(in *vrptw.Instance, i, j int) bool {
	if j == 0 {
		return true
	}
	return in.DepartReady(i)+in.Dist(i, j) <= in.Sites[j].Due
}

func refBefore(route []int, p int) int {
	if p == 0 {
		return 0
	}
	return route[p-1]
}

func refAfter(route []int, p int) int {
	if p == len(route)-1 {
		return 0
	}
	return route[p+1]
}

func refRemAt(route []int, seg, l, i int) int {
	if i < seg {
		return route[i]
	}
	return route[i+l]
}

func refPrefixLoad(in *vrptw.Instance, route []int, p int) float64 {
	var l float64
	for _, c := range route[:p] {
		l += in.Sites[c].Demand
	}
	return l
}

func refSegLoad(in *vrptw.Instance, seg []int) float64 {
	var l float64
	for _, c := range seg {
		l += in.Sites[c].Demand
	}
	return l
}

// refPosIndex maps every customer of one solution to its (route, position)
// pair so granular proposals can locate an arc endpoint in O(1). It is
// memoized on the solution pointer and rebuilt in O(N) when it changes;
// the storage is reused across rebuilds.
type refPosIndex struct {
	sol   *solution.Solution
	route []int32
	pos   []int32
}

// Reset binds the index to s, rebuilding only when s differs from the
// last indexed solution.
func (px *refPosIndex) Reset(in *vrptw.Instance, s *solution.Solution) {
	if px.sol == s {
		return
	}
	n := in.N() + 1
	if cap(px.route) < n {
		px.route = make([]int32, n)
		px.pos = make([]int32, n)
	}
	px.route = px.route[:n]
	px.pos = px.pos[:n]
	for ri, route := range s.Routes {
		for pi, c := range route {
			px.route[c] = int32(ri)
			px.pos[c] = int32(pi)
		}
	}
	px.sol = s
}

// Locate returns the route index and position of customer c. Every
// customer appears in exactly one route, so all entries are live.
func (px *refPosIndex) Locate(c int) (route, pos int) {
	return int(px.route[c]), int(px.pos[c])
}

// RouteOf returns only the route index of customer c — the scan loops'
// cheap prefilter before committing to a full Locate.
func (px *refPosIndex) RouteOf(c int) int { return int(px.route[c]) }

// refIntraAttempts bounds the outer draw loop of the intra-route proposers
// (2-opt, Or-opt). A k-nearest list rarely holds same-route members when
// routes are short relative to the fleet, so exhausting refProposeAttempts
// full scans before falling back would dominate the sweep; the full
// proposal path is cheap for these operators (it draws the route first),
// so bailing out early costs little bias and a lot less time.
const refIntraAttempts = 6

// refArcScan iterates one customer's granular successor list starting at a
// random offset. Proposers draw c1 once per attempt and scan its list for
// the first admissible c2 — a success probability of 1-(1-p)^k per attempt
// instead of p, which keeps fallbacks to the full proposal path rare even
// for same-route operators whose per-arc hit rate is low.
type refArcScan struct {
	nbrs []int32
	off  int
	t    int
}

// refDrawC1 picks a uniform random customer and positions the scan at a
// random offset of its neighbor list. ok is false when the list is empty
// (every admissible arc from c1 misses its deadline).
func refDrawC1(in *vrptw.Instance, nl *vrptw.NeighborLists, r *rng.Rand) (c1 int, sc refArcScan, ok bool) {
	c1 = 1 + r.Intn(in.N())
	nbrs := nl.Of(c1)
	if len(nbrs) == 0 {
		return c1, refArcScan{}, false
	}
	return c1, refArcScan{nbrs: nbrs, off: r.Intn(len(nbrs))}, true
}

// next yields the scan's next candidate successor, wrapping around the
// list once.
func (sc *refArcScan) next() (c2 int, ok bool) {
	if sc.t >= len(sc.nbrs) {
		return 0, false
	}
	i := sc.off + sc.t
	if i >= len(sc.nbrs) {
		i -= len(sc.nbrs)
	}
	sc.t++
	return int(sc.nbrs[i]), true
}

// Reference granular proposer: relocate c2 out of its
// route to directly after c1 in another route, creating the arc c1 -> c2.
func refRelocate(in *vrptw.Instance, s *solution.Solution, px *refPosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < refProposeAttempts; try++ {
		c1, sc, ok := refDrawC1(in, nl, r)
		if !ok {
			continue
		}
		r1, p1 := px.Locate(c1)
		rt := s.Routes[r1]
		tpos := p1 + 1
		next := 0
		if tpos < len(rt) {
			next = rt[tpos]
		}
		spare := in.Capacity - s.Load[r1]
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) == r1 {
				continue
			}
			r2, p2 := px.Locate(c2)
			if in.Sites[c2].Demand > spare {
				continue
			}
			rf := s.Routes[r2]
			if !refArcOK(in, refBefore(rf, p2), refAfter(rf, p2)) {
				continue // gap closure in the donor
			}
			// The arc c1 -> c2 is admissible by list membership; check the
			// second insertion arc.
			if !refArcOK(in, c2, next) {
				continue
			}
			return MoveData{Kind: KindRelocate, A: int32(r2), B: int32(p2), C: int32(r1), D: int32(tpos), E: int32(c2)}, true
		}
	}
	return MoveData{}, false
}

// Reference granular proposer: swap c1's successor with
// c2 in another route, so the arc c1 -> c2 is created in c1's route.
func refExchange(in *vrptw.Instance, s *solution.Solution, px *refPosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < refProposeAttempts; try++ {
		c1, sc, ok := refDrawC1(in, nl, r)
		if !ok {
			continue
		}
		r1, p1 := px.Locate(c1)
		a := s.Routes[r1]
		q := p1 + 1
		if q >= len(a) {
			continue // c1 has no successor to swap out
		}
		x := a[q]
		ax := refAfter(a, q)
		dx := in.Sites[x].Demand
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) == r1 {
				continue
			}
			r2, p2 := px.Locate(c2)
			dc := in.Sites[c2].Demand
			if s.Load[r1]-dx+dc > in.Capacity || s.Load[r2]-dc+dx > in.Capacity {
				continue
			}
			// c1 -> c2 is the list arc; the other three created arcs are
			// checked as on the full path.
			if !refArcOK(in, c2, ax) {
				continue
			}
			b := s.Routes[r2]
			if !refArcOK(in, refBefore(b, p2), x) || !refArcOK(in, x, refAfter(b, p2)) {
				continue
			}
			return MoveData{Kind: KindExchange, A: int32(r1), B: int32(q), C: int32(r2), D: int32(p2), E: int32(x), F: int32(c2)}, true
		}
	}
	return MoveData{}, false
}

// Reference granular proposer: reverse the segment between
// c1 and c2 of one route, creating the arc c1 -> c2.
func refTwoOpt(in *vrptw.Instance, s *solution.Solution, px *refPosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	for try := 0; try < refIntraAttempts; try++ {
		c1, sc, ok := refDrawC1(in, nl, r)
		if !ok {
			continue
		}
		r1, p1 := px.Locate(c1)
		i := p1 + 1
		route := s.Routes[r1]
		if i >= len(route) {
			continue // reversing an empty tail is a no-op
		}
		ri := route[i]
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) != r1 {
				continue
			}
			_, j := px.Locate(c2)
			if j <= i {
				continue // needs a non-empty segment after c1 ending at c2
			}
			// Reversing route[i..j] creates (c1 -> c2) — the list arc — and
			// (route[i] -> refAfter(j)).
			if !refArcOK(in, ri, refAfter(route, j)) {
				continue
			}
			return MoveData{Kind: KindTwoOpt, A: int32(r1), B: int32(i), C: int32(j), D: int32(ri), E: int32(route[j])}, true
		}
	}
	return MoveData{}, false
}

// Reference granular proposer: cut after c1 and before c2
// in another route and swap the tails, creating the arc c1 -> c2.
func refTwoOptStar(in *vrptw.Instance, s *solution.Solution, px *refPosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < refProposeAttempts; try++ {
		c1, sc, ok := refDrawC1(in, nl, r)
		if !ok {
			continue
		}
		r1, pc1 := px.Locate(c1)
		a := s.Routes[r1]
		p1 := pc1 + 1
		head1 := refPrefixLoad(in, a, p1)
		tail2head := 0
		if p1 < len(a) {
			tail2head = a[p1]
		}
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) == r1 {
				continue
			}
			r2, p2 := px.Locate(c2)
			b := s.Routes[r2]
			head2 := refPrefixLoad(in, b, p2)
			load1 := head1 + s.Load[r2] - head2
			load2 := head2 + s.Load[r1] - head1
			if load1 > in.Capacity || load2 > in.Capacity {
				continue
			}
			// c1 -> c2 is the list arc; check the reciprocal new arc.
			if !refArcOK(in, refBefore(b, p2), tail2head) {
				continue
			}
			return MoveData{Kind: KindTwoOptStar, A: int32(r1), B: int32(p1), C: int32(r2), D: int32(p2), E: int32(c1), F: int32(refBefore(b, p2))}, true
		}
	}
	return MoveData{}, false
}

// Reference granular proposer: move the two-customer
// segment starting at c2 to directly after c1 in the same route, creating
// the arc c1 -> c2.
func refOrOpt(in *vrptw.Instance, s *solution.Solution, px *refPosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	for try := 0; try < refIntraAttempts; try++ {
		c1, sc, ok := refDrawC1(in, nl, r)
		if !ok {
			continue
		}
		r1, pc1 := px.Locate(c1)
		route := s.Routes[r1]
		if len(route) < 3 {
			continue
		}
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) != r1 {
				continue
			}
			_, seg := px.Locate(c2)
			if seg > len(route)-2 {
				continue
			}
			if pc1 == seg || pc1 == seg+1 {
				continue // c1 inside the segment
			}
			// dst is the insertion position in remainder coordinates such
			// that the segment lands directly after c1.
			var dst int
			if pc1 < seg {
				dst = pc1 + 1
			} else {
				dst = pc1 - 1
			}
			if dst == seg {
				continue // would reinsert in place
			}
			if !refArcOK(in, refBefore(route, seg), refAfter(route, seg+1)) {
				continue // gap closure
			}
			// c1 -> c2 is the list arc; check the segment's exit arc.
			next := 0
			if dst < len(route)-2 {
				next = refRemAt(route, seg, 2, dst)
			}
			if !refArcOK(in, route[seg+1], next) {
				continue
			}
			return MoveData{Kind: KindOrOpt, A: int32(r1), B: int32(seg), C: int32(dst), D: int32(c2), E: int32(route[seg+1])}, true
		}
	}
	return MoveData{}, false
}

// Reference granular proposer: the general Or-opt — move
// the segment of random length starting at c2 to directly after c1 in the
// same route, creating the arc c1 -> c2.
func refOrOptN(in *vrptw.Instance, s *solution.Solution, px *refPosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	for try := 0; try < refIntraAttempts; try++ {
		length := 1 + r.Intn(3)
		c1, sc, ok := refDrawC1(in, nl, r)
		if !ok {
			continue
		}
		r1, pc1 := px.Locate(c1)
		route := s.Routes[r1]
		if len(route) < length+1 {
			continue
		}
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) != r1 {
				continue
			}
			_, seg := px.Locate(c2)
			if seg > len(route)-length {
				continue
			}
			if pc1 >= seg && pc1 < seg+length {
				continue // c1 inside the segment
			}
			var dst int
			if pc1 < seg {
				dst = pc1 + 1
			} else {
				dst = pc1 - length + 1
			}
			if dst == seg {
				continue
			}
			if !refArcOK(in, refBefore(route, seg), refAfter(route, seg+length-1)) {
				continue
			}
			next := 0
			if dst < len(route)-length {
				next = refRemAt(route, seg, length, dst)
			}
			if !refArcOK(in, route[seg+length-1], next) {
				continue
			}
			return MoveData{Kind: KindOrOptN, A: int32(r1), B: int32(seg), C: int32(length), D: int32(dst), E: int32(c2), F: int32(route[seg+length-1])}, true
		}
	}
	return MoveData{}, false
}

// Reference granular proposer: relocate into a fresh route
// creates the arc depot -> cust, so it draws from the depot's list.
func refRelocateNew(in *vrptw.Instance, s *solution.Solution, px *refPosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) >= in.Vehicles {
		return MoveData{}, false // fleet exhausted
	}
	depot := nl.Of(0)
	if len(depot) == 0 {
		return MoveData{}, false
	}
	sc := refArcScan{nbrs: depot, off: r.Intn(len(depot))}
	for {
		c2, more := sc.next()
		if !more {
			break
		}
		from, fpos := px.Locate(c2)
		rf := s.Routes[from]
		if len(rf) < 2 {
			continue // moving a singleton would just relabel the route
		}
		// depot -> cust is the list arc; check the donor's gap closure.
		if !refArcOK(in, refBefore(rf, fpos), refAfter(rf, fpos)) {
			continue
		}
		return MoveData{Kind: KindRelocateNew, A: int32(from), B: int32(fpos), C: int32(c2)}, true
	}
	return MoveData{}, false
}

// Reference granular proposer: swap the segment after c1
// with the segment starting at c2 of another route, creating the arc
// c1 -> c2.
func refCrossExchange(in *vrptw.Instance, s *solution.Solution, px *refPosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < refProposeAttempts; try++ {
		c1, sc, ok := refDrawC1(in, nl, r)
		if !ok {
			continue
		}
		l1 := 1 + r.Intn(3)
		l2 := 1 + r.Intn(3)
		r1, pc1 := px.Locate(c1)
		a := s.Routes[r1]
		p1 := pc1 + 1
		if p1+l1 > len(a) {
			continue
		}
		seg1 := refSegLoad(in, a[p1:p1+l1])
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			if px.RouteOf(c2) == r1 {
				continue
			}
			r2, p2 := px.Locate(c2)
			b := s.Routes[r2]
			if p2+l2 > len(b) {
				continue
			}
			seg2 := refSegLoad(in, b[p2:p2+l2])
			load1 := s.Load[r1] - seg1 + seg2
			load2 := s.Load[r2] - seg2 + seg1
			if load1 > in.Capacity || load2 > in.Capacity {
				continue
			}
			// c1 -> c2 is the list arc; check the remaining three new arcs.
			if !refArcOK(in, b[p2+l2-1], refAfter(a, p1+l1-1)) {
				continue
			}
			if !refArcOK(in, refBefore(b, p2), a[p1]) || !refArcOK(in, a[p1+l1-1], refAfter(b, p2+l2-1)) {
				continue
			}
			return MoveData{Kind: KindCrossExchange, A: int32(r1), B: int32(p1), C: int32(l1), D: int32(r2), E: int32(p2), F: int32(l2), G: int32(a[p1]), H: int32(b[p2])}, true
		}
	}
	return MoveData{}, false
}

// refPropose dispatches op to its frozen reference proposal path.
func refPropose(op MoveKind, in *vrptw.Instance, s *solution.Solution, px *refPosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	switch op {
	case KindRelocate:
		return refRelocate(in, s, px, nl, r)
	case KindExchange:
		return refExchange(in, s, px, nl, r)
	case KindTwoOpt:
		return refTwoOpt(in, s, px, nl, r)
	case KindTwoOptStar:
		return refTwoOptStar(in, s, px, nl, r)
	case KindOrOpt:
		return refOrOpt(in, s, px, nl, r)
	case KindOrOptN:
		return refOrOptN(in, s, px, nl, r)
	case KindRelocateNew:
		return refRelocateNew(in, s, px, nl, r)
	case KindCrossExchange:
		return refCrossExchange(in, s, px, nl, r)
	}
	panic("operators: no reference proposer for " + op.String())
}

// FuzzGranularMatchesReference holds every granular proposer, the
// paper's five and the extensions, to its frozen reference: from the same
// RNG state on the same solution each returns the same (MoveData, ok) and
// leaves the stream in the same state. The solutions are I1 constructions
// walked a few random moves away, so routes of every length, emptied
// donors and exhausted fleets all occur.
func FuzzGranularMatchesReference(f *testing.F) {
	for op := uint64(0); op < uint64(len(Extended())); op++ {
		f.Add(op%6, 40+op*11, op+1, op%5, 100+op, op)
		f.Add((op+3)%6, 150+op*30, op+7, 3+op%5, 9+op, op)
		f.Add(uint64(5), uint64(5), uint64(20), uint64(76), uint64(0), op) // 7 RC2 customers: tight windows
	}
	f.Add(uint64(0), uint64(395), uint64(1), uint64(4), uint64(7), uint64(1))
	f.Add(uint64(2), uint64(3), uint64(9), uint64(2), uint64(5), uint64(6))
	f.Fuzz(func(t *testing.T, class, n, seed, walk, rseed, op uint64) {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.Class(class % 6), N: int(2 + n%400), Seed: seed})
		if err != nil {
			t.Skip(err)
		}
		wr := rng.New(walk)
		s := construct.I1(in, construct.RandomParams(wr))
		ops := Extended()
		g := NewGenerator(in, ops)
		var buf CandidateBuffer
		for step := 0; step < int(walk%8); step++ {
			g.MovesInto(&buf, s, wr, 1)
			if len(buf.Data) == 0 {
				break
			}
			s = buf.Data[0].Apply(in, s)
		}
		o := ops[op%uint64(len(ops))]
		nl := in.NeighborLists(1 + int(rseed%25))
		var px PosIndex
		px.Reset(in, s)
		var ref refPosIndex
		ref.Reset(in, s)
		r, rr := rng.New(rseed), rng.New(rseed)
		for draw := 0; draw < 100; draw++ {
			got, ok := o.proposeGranular(in, s, &px, nl, r)
			want, wok := refPropose(o, in, s, &ref, nl, rr)
			if got != want || ok != wok {
				t.Fatalf("%s draw %d: proposed (%+v, %v), reference (%+v, %v)", o, draw, got, ok, want, wok)
			}
			if r.State() != rr.State() {
				t.Fatalf("%s draw %d: RNG state diverged from the reference", o, draw)
			}
		}
	})
}
