package operators

import (
	"fmt"
	"math/bits"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// This file is the granular side of the candidate engine: every operator
// gets a proposal path that draws only moves whose key created arc
// (i -> j) lies in the instance's sparse k-nearest graph
// (vrptw.NeighborLists). A draw picks a random site i, scans i's granular
// successor list from a random offset, reads the endpoints' places in the
// current solution from the PosIndex, and builds the one move of its
// operator that creates the first admissible arc i -> j — re-checking the
// remaining capacity and arc conditions exactly as the full path does, so
// every granular move is a valid full-neighborhood move with an identical
// delta.

// PosIndex is the customer table of one solution: one record per
// customer holding its route and position, its predecessor and successor
// (0 for the depot) and the load its route carries before it. A granular
// proposal reads an arc endpoint's whole side of the move from this one
// record instead of from the route slices. The table is memoized on the
// (instance, solution) pair, and binding it to an instance also fetches
// the instance's arc bitset, so the sweeps test arcs without touching the
// instance's lock. PosIndex also holds the slot memos of relocate and
// exchange, which outlive any one solution.
type PosIndex struct {
	in   *vrptw.Instance
	sol  *solution.Solution
	arcs *vrptw.ArcBits
	cust []custRec

	rel, ex slotMemo
}

// custRec is one customer's record in the PosIndex.
type custRec struct {
	route, pos int32
	pred, succ int32 // the neighboring sites on the route, 0 for the depot
	// loadBefore is the demand of the customers ahead of this one, summed
	// in route order from 0 — the same additions, in the same order, as
	// any prefix load of the route, so capacity sums stay bit-identical.
	loadBefore float64
}

// Reset binds the table to s on in. A route s shares with the bound
// solution on the same instance (solution.SharedRoute, the rule Eval.Reset
// keeps schedules by) keeps its customers' records, which depend on the
// route alone except for its index; that index is rewritten when the
// route moved, and only the other routes' records are refilled. A search
// step thus refills the one or two routes its move changed; a solution on
// another instance refills every route.
func (px *PosIndex) Reset(in *vrptw.Instance, s *solution.Solution) {
	if px.sol == s && px.in == in {
		return
	}
	var old [][]int
	if px.sol != nil && px.in == in {
		old = px.sol.Routes
	} else {
		n := in.N() + 1
		if cap(px.cust) < n {
			px.cust = make([]custRec, n)
		}
		px.cust = px.cust[:n]
		px.arcs = in.ArcBits()
	}
	hint := 0
	for ri, route := range s.Routes {
		j := solution.SharedRoute(old, route, hint)
		if j < 0 {
			px.fill(in, ri, route)
			continue
		}
		hint = j + 1
		if j != ri {
			for _, c := range route {
				px.cust[c].route = int32(ri)
			}
		}
	}
	px.in, px.sol = in, s
}

// fill writes the records of route, the ri-th route of the solution.
func (px *PosIndex) fill(in *vrptw.Instance, ri int, route []int) {
	var load float64
	pred := 0
	for pi, c := range route {
		succ := 0
		if pi+1 < len(route) {
			succ = route[pi+1]
		}
		px.cust[c] = custRec{route: int32(ri), pos: int32(pi), pred: int32(pred), succ: int32(succ), loadBefore: load}
		load += in.Sites[c].Demand
		pred = c
	}
}

// slotMemo remembers, for each site c1, which slots of c1's granular list
// hold a site j whose arc j -> t is admissible, for the last tag t a
// proposer asked about c1 (relocate tags c1 with succ(c1), exchange with
// succ(succ(c1))). The arc bitset and the lists are immutable, so a mask
// is a constant of (instance, lists, c1, t): a memo bound to one instance
// and one NeighborLists stays exact across draws, sweeps and solutions,
// and a draw whose c1 still has the tag it had last time reuses the mask.
// Each site has ⌈K/64⌉ mask words, so lists of any length take one path.
type slotMemo struct {
	in    *vrptw.Instance
	nl    *vrptw.NeighborLists
	words int
	tag   []int32  // per site, the tag its mask was built for; -1 for none
	mask  []uint64 // per site, words words; bit i is slot i
}

// of returns c1's slot mask for tag t, building it on a miss.
func (m *slotMemo) of(in *vrptw.Instance, nl *vrptw.NeighborLists, arcs *vrptw.ArcBits, c1, t int) []uint64 {
	if m.in != in || m.nl != nl {
		m.bind(in, nl)
	}
	mask := m.mask[c1*m.words : (c1+1)*m.words]
	if m.tag[c1] != int32(t) {
		m.tag[c1] = int32(t)
		fillMask(mask, nl.Of(c1), arcs, t)
	}
	return mask
}

// bind empties the memo and sizes it for in and nl.
func (m *slotMemo) bind(in *vrptw.Instance, nl *vrptw.NeighborLists) {
	m.in, m.nl, m.words = in, nl, (nl.K+63)/64
	n := in.N() + 1
	if cap(m.tag) < n {
		m.tag = make([]int32, n)
	}
	m.tag = m.tag[:n]
	for i := range m.tag {
		m.tag[i] = -1
	}
	if cap(m.mask) < n*m.words {
		m.mask = make([]uint64, n*m.words)
	}
	m.mask = m.mask[:n*m.words]
}

// fillMask sets bit i of mask exactly when the arc list[i] -> t is
// admissible.
func fillMask(mask []uint64, list []int32, arcs *vrptw.ArcBits, t int) {
	clear(mask)
	for i, j := range list {
		if arcs.OK(int(j), t) {
			mask[i/64] |= 1 << (i % 64)
		}
	}
}

// intraAttempts bounds the outer draw loop of the intra-route proposers
// (2-opt, Or-opt). A k-nearest list rarely holds same-route members when
// routes are short relative to the fleet, so exhausting proposeAttempts
// full scans before falling back would dominate the sweep; the full
// proposal path is cheap for these operators (it draws the route first),
// so bailing out early costs little bias and a lot less time.
const intraAttempts = 6

// proposeGranular is Propose on the granular path: it draws only moves
// of kind k that create an arc of nl, reading the solution's customers
// from px, which must be bound to (in, s).
func (k MoveKind) proposeGranular(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	switch k {
	case KindRelocate:
		return granularRelocate(in, s, px, nl, r)
	case KindExchange:
		return granularExchange(in, s, px, nl, r)
	case KindTwoOpt:
		return granularTwoOpt(in, s, px, nl, r)
	case KindTwoOptStar:
		return granularTwoOptStar(in, s, px, nl, r)
	case KindOrOpt:
		return granularOrOpt(in, s, px, nl, r)
	case KindOrOptN:
		return granularOrOptN(in, s, px, nl, r)
	case KindRelocateNew:
		return granularRelocateNew(in, s, px, nl, r)
	case KindCrossExchange:
		return granularCrossExchange(in, s, px, nl, r)
	}
	panic(fmt.Sprintf("operators: proposeGranular on kind %d", k))
}

// arcScan iterates one customer's granular successor list starting at a
// random offset. Proposers draw c1 once per attempt and scan its list for
// the first admissible c2 — a success probability of 1-(1-p)^k per attempt
// instead of p, which keeps fallbacks to the full proposal path rare even
// for same-route operators whose per-arc hit rate is low.
type arcScan struct {
	nbrs []int32
	off  int
	t    int
}

// drawC1 picks a uniform random customer and positions the scan at a
// random offset of its neighbor list. ok is false when the list is empty
// (every admissible arc from c1 misses its deadline).
func drawC1(in *vrptw.Instance, nl *vrptw.NeighborLists, r *rng.Rand) (c1 int, sc arcScan, ok bool) {
	c1 = 1 + r.Intn(in.N())
	nbrs := nl.Of(c1)
	if len(nbrs) == 0 {
		return c1, arcScan{}, false
	}
	return c1, arcScan{nbrs: nbrs, off: r.Intn(len(nbrs))}, true
}

// next yields the scan's next candidate successor, wrapping around the
// list once.
func (sc *arcScan) next() (c2 int, ok bool) {
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

// slotScan visits the set slots of a slot mask in the order arcScan
// visits all slots — from the drawn offset to the end of the list, then
// from its start — so a proposer that skips the unset slots finds the
// same first admissible slot. The offset's word is visited twice: its
// bits from the offset on first, the ones below it last.
type slotScan struct {
	mask []uint64
	w0   int    // the offset's word
	lo   uint64 // the bits of word w0 below the offset
	v    int    // words visited after w0
	base int    // the first slot of the current word
	cur  uint64 // the current word's unvisited set bits
}

// newSlotScan starts a scan of mask at slot off.
func newSlotScan(mask []uint64, off int) slotScan {
	w0 := off / 64
	lo := uint64(1)<<(off%64) - 1
	return slotScan{mask: mask, w0: w0, lo: lo, base: w0 * 64, cur: mask[w0] &^ lo}
}

// next yields the next set slot, or false once every set slot was
// visited.
func (sc *slotScan) next() (slot int, ok bool) {
	for sc.cur == 0 {
		sc.v++
		if sc.v > len(sc.mask) {
			return 0, false
		}
		w := sc.w0 + sc.v
		if w >= len(sc.mask) {
			w -= len(sc.mask)
		}
		sc.base, sc.cur = w*64, sc.mask[w]
		if sc.v == len(sc.mask) {
			sc.cur &= sc.lo
		}
	}
	slot = sc.base + bits.TrailingZeros64(sc.cur)
	sc.cur &= sc.cur - 1
	return slot, true
}

// granularRelocate relocates c2 out of its route to directly after c1 in
// another route, creating the arc c1 -> c2.
func granularRelocate(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < proposeAttempts; try++ {
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		t1 := &px.cust[c1]
		// The arc c1 -> c2 is admissible by list membership; the mask
		// holds the slots whose second insertion arc c2 -> succ(c1) is,
		// and the remaining tests run on those slots in scan order. The
		// tests are pure, so which slot passes first does not depend on
		// their order.
		ms := newSlotScan(px.rel.of(in, nl, px.arcs, c1, int(t1.succ)), sc.off)
		spare := in.Capacity - s.Load[t1.route]
		for {
			slot, more := ms.next()
			if !more {
				break
			}
			c2 := int(sc.nbrs[slot])
			t2 := &px.cust[c2]
			if t2.route == t1.route || in.Sites[c2].Demand > spare {
				continue
			}
			if !px.arcs.OK(int(t2.pred), int(t2.succ)) {
				continue // gap closure in the donor
			}
			return MoveData{Kind: KindRelocate, A: t2.route, B: t2.pos, C: t1.route, D: t1.pos + 1, E: int32(c2)}, true
		}
	}
	return MoveData{}, false
}

// granularExchange swaps c1's successor with c2 in another route, so the
// arc c1 -> c2 is created in c1's route.
func granularExchange(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < proposeAttempts; try++ {
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		t1 := &px.cust[c1]
		x := int(t1.succ)
		if x == 0 {
			continue // c1 has no successor to swap out
		}
		dx := in.Sites[x].Demand
		// c1 -> c2 is the list arc; the mask holds the slots whose arc
		// c2 -> succ(x) is admissible (see granularRelocate), and the
		// other two created arcs are tested per slot.
		ms := newSlotScan(px.ex.of(in, nl, px.arcs, c1, int(px.cust[x].succ)), sc.off)
		for {
			slot, more := ms.next()
			if !more {
				break
			}
			c2 := int(sc.nbrs[slot])
			t2 := &px.cust[c2]
			if t2.route == t1.route {
				continue
			}
			dc := in.Sites[c2].Demand
			if s.Load[t1.route]-dx+dc > in.Capacity || s.Load[t2.route]-dc+dx > in.Capacity {
				continue
			}
			if !px.arcs.OK(int(t2.pred), x) || !px.arcs.OK(x, int(t2.succ)) {
				continue
			}
			return MoveData{Kind: KindExchange, A: t1.route, B: t1.pos + 1, C: t2.route, D: t2.pos, E: int32(x), F: int32(c2)}, true
		}
	}
	return MoveData{}, false
}

// granularTwoOpt reverses the segment between c1 and c2 of one route,
// creating the arc c1 -> c2.
func granularTwoOpt(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	for try := 0; try < intraAttempts; try++ {
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		t1 := &px.cust[c1]
		ri := int(t1.succ)
		if ri == 0 {
			continue // reversing an empty tail is a no-op
		}
		i := t1.pos + 1
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			t2 := &px.cust[c2]
			if t2.route != t1.route || t2.pos <= i {
				continue // needs a non-empty segment after c1 ending at c2
			}
			// Reversing route[i..j] creates (c1 -> c2) — the list arc — and
			// (route[i] -> after(j)).
			if !px.arcs.OK(ri, int(t2.succ)) {
				continue
			}
			return MoveData{Kind: KindTwoOpt, A: t1.route, B: i, C: t2.pos, D: int32(ri), E: int32(c2)}, true
		}
	}
	return MoveData{}, false
}

// granularTwoOptStar cuts after c1 and before c2 in another route and
// swaps the tails, creating the arc c1 -> c2.
func granularTwoOptStar(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < proposeAttempts; try++ {
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		t1 := &px.cust[c1]
		head1 := t1.loadBefore + in.Sites[c1].Demand // the prefix load through c1
		tail2head := int(t1.succ)
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			t2 := &px.cust[c2]
			if t2.route == t1.route {
				continue
			}
			head2 := t2.loadBefore
			load1 := head1 + s.Load[t2.route] - head2
			load2 := head2 + s.Load[t1.route] - head1
			if load1 > in.Capacity || load2 > in.Capacity {
				continue
			}
			// c1 -> c2 is the list arc; check the reciprocal new arc.
			if !px.arcs.OK(int(t2.pred), tail2head) {
				continue
			}
			return MoveData{Kind: KindTwoOptStar, A: t1.route, B: t1.pos + 1, C: t2.route, D: t2.pos, E: int32(c1), F: t2.pred}, true
		}
	}
	return MoveData{}, false
}

// granularOrOpt moves the two-customer segment starting at c2 to directly
// after c1 in the same route, creating the arc c1 -> c2.
func granularOrOpt(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	for try := 0; try < intraAttempts; try++ {
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		t1 := &px.cust[c1]
		route := s.Routes[t1.route]
		if len(route) < 3 {
			continue
		}
		pc1 := int(t1.pos)
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			t2 := &px.cust[c2]
			if t2.route != t1.route {
				continue
			}
			seg := int(t2.pos)
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
			if !px.arcs.OK(int(t2.pred), after(route, seg+1)) {
				continue // gap closure
			}
			// c1 -> c2 is the list arc; check the segment's exit arc.
			next := 0
			if dst < len(route)-2 {
				next = remAt(route, seg, 2, dst)
			}
			if !px.arcs.OK(route[seg+1], next) {
				continue
			}
			return MoveData{Kind: KindOrOpt, A: t1.route, B: int32(seg), C: int32(dst), D: int32(c2), E: int32(route[seg+1])}, true
		}
	}
	return MoveData{}, false
}

// granularOrOptN is the general Or-opt: it moves the segment of random
// length starting at c2 to directly after c1 in the same route, creating
// the arc c1 -> c2.
func granularOrOptN(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	for try := 0; try < intraAttempts; try++ {
		length := 1 + r.Intn(maxSegLen)
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		t1 := &px.cust[c1]
		route := s.Routes[t1.route]
		if len(route) < length+1 {
			continue
		}
		pc1 := int(t1.pos)
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			t2 := &px.cust[c2]
			if t2.route != t1.route {
				continue
			}
			seg := int(t2.pos)
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
			if !px.arcs.OK(int(t2.pred), after(route, seg+length-1)) {
				continue
			}
			next := 0
			if dst < len(route)-length {
				next = remAt(route, seg, length, dst)
			}
			if !px.arcs.OK(route[seg+length-1], next) {
				continue
			}
			return MoveData{Kind: KindOrOptN, A: t1.route, B: int32(seg), C: int32(length), D: int32(dst), E: int32(c2), F: int32(route[seg+length-1])}, true
		}
	}
	return MoveData{}, false
}

// granularRelocateNew draws from the depot's list, since relocating into a
// fresh route creates the arc depot -> cust.
func granularRelocateNew(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) >= in.Vehicles {
		return MoveData{}, false // fleet exhausted
	}
	depot := nl.Of(0)
	if len(depot) == 0 {
		return MoveData{}, false
	}
	sc := arcScan{nbrs: depot, off: r.Intn(len(depot))}
	for {
		c2, more := sc.next()
		if !more {
			break
		}
		t2 := &px.cust[c2]
		if t2.pred == 0 && t2.succ == 0 {
			continue // moving a singleton would just relabel the route
		}
		// depot -> cust is the list arc; check the donor's gap closure.
		if !px.arcs.OK(int(t2.pred), int(t2.succ)) {
			continue
		}
		return MoveData{Kind: KindRelocateNew, A: t2.route, B: t2.pos, C: int32(c2)}, true
	}
	return MoveData{}, false
}

// granularCrossExchange swaps the segment after c1 with the segment
// starting at c2 of another route, creating the arc c1 -> c2.
func granularCrossExchange(in *vrptw.Instance, s *solution.Solution, px *PosIndex, nl *vrptw.NeighborLists, r *rng.Rand) (MoveData, bool) {
	if len(s.Routes) < 2 {
		return MoveData{}, false
	}
	for try := 0; try < proposeAttempts; try++ {
		c1, sc, ok := drawC1(in, nl, r)
		if !ok {
			continue
		}
		l1 := 1 + r.Intn(maxSegLen)
		l2 := 1 + r.Intn(maxSegLen)
		t1 := &px.cust[c1]
		a := s.Routes[t1.route]
		p1 := int(t1.pos) + 1
		if p1+l1 > len(a) {
			continue
		}
		seg1 := segLoad(in, a[p1:p1+l1])
		for {
			c2, more := sc.next()
			if !more {
				break
			}
			t2 := &px.cust[c2]
			if t2.route == t1.route {
				continue
			}
			b := s.Routes[t2.route]
			p2 := int(t2.pos)
			if p2+l2 > len(b) {
				continue
			}
			seg2 := segLoad(in, b[p2:p2+l2])
			load1 := s.Load[t1.route] - seg1 + seg2
			load2 := s.Load[t2.route] - seg2 + seg1
			if load1 > in.Capacity || load2 > in.Capacity {
				continue
			}
			// c1 -> c2 is the list arc; check the remaining three new arcs.
			if !px.arcs.OK(b[p2+l2-1], after(a, p1+l1-1)) {
				continue
			}
			if !px.arcs.OK(int(t2.pred), a[p1]) || !px.arcs.OK(a[p1+l1-1], after(b, p2+l2-1)) {
				continue
			}
			return MoveData{Kind: KindCrossExchange, A: t1.route, B: int32(p1), C: int32(l1), D: t2.route, E: int32(p2), F: int32(l2), G: int32(a[p1]), H: int32(c2)}, true
		}
	}
	return MoveData{}, false
}
