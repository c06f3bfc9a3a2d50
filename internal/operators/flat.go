package operators

import (
	"fmt"

	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// This file is the move encoding of the candidate engine. MoveData is a
// plain tagged union — one fixed-size struct, no pointers — so a sweep's
// moves live in reusable slices and proposing one never touches the heap.
// It is the package's only move type: every operator proposes MoveData,
// and every caller (the TSMO variants, the baselines, the benchmarks)
// applies, delta-evaluates and tabu-tags moves through it.

// MoveKind discriminates the MoveData union, and each kind is the operator
// that proposes its moves (Propose). KindNone is the zero value and marks
// "no move" (e.g. a checkpoint-restored candidate that is already
// materialized); it proposes nothing.
type MoveKind uint8

const (
	KindNone MoveKind = iota
	// KindRelocate moves one customer from its route to a position in
	// another route — Osman's (1,0) λ-exchange. Emptied donor routes
	// disappear, which is the search's only way to reduce the vehicle
	// count.
	KindRelocate
	// KindExchange swaps two customers between different routes —
	// Osman's (1,1) λ-exchange.
	KindExchange
	// KindTwoOpt reverses a contiguous segment of a single route (or the
	// whole route).
	KindTwoOpt
	// KindTwoOptStar interchanges the tails of two routes: the first part
	// of one route continues with the second part of the other and vice
	// versa. Cutting at a route's end merges routes (and can free a
	// vehicle).
	KindTwoOptStar
	// KindOrOpt moves two consecutive customers to a different place in
	// the same route.
	KindOrOpt
	// KindOrOptN moves a segment of 1 to 3 consecutive customers to a
	// different position in the same route — the general Or-opt, of which
	// KindOrOpt is the two-customer case.
	KindOrOptN
	// KindRelocateNew moves one customer out of a multi-customer route
	// into a fresh route of its own. It is the inverse pressure to the
	// paper's vehicle-count minimization: it buys slack (shorter tardy
	// routes) at the cost of one more vehicle, letting the search repair
	// heavily violated solutions.
	KindRelocateNew
	// KindCrossExchange swaps two segments of 1 to 3 consecutive customers
	// between different routes (Taillard et al. 1997), generalizing
	// KindExchange from single customers to segments.
	KindCrossExchange
)

// kindNames is the one name of each kind: the label of its telemetry
// funnel row, its entry in a checkpoint's config fingerprint and its
// operator-ablation label.
var kindNames = [...]string{
	KindNone:          "none",
	KindRelocate:      "relocate",
	KindExchange:      "exchange",
	KindTwoOpt:        "2-opt",
	KindTwoOptStar:    "2-opt*",
	KindOrOpt:         "or-opt",
	KindOrOptN:        "or-opt-n",
	KindRelocateNew:   "relocate-new",
	KindCrossExchange: "cross-exchange",
}

// The telemetry funnel has one row per kind.
var _ [telemetry.OpKinds - len(kindNames)]struct{}

// String returns the kind's operator name ("none" for KindNone and
// unknown kinds).
func (k MoveKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return kindNames[KindNone]
}

// ParseKind returns the kind whose String is name, or KindNone for an
// unknown name.
func ParseKind(name string) MoveKind {
	for k, n := range kindNames {
		if n == name {
			return MoveKind(k)
		}
	}
	return KindNone
}

// MoveData is one neighborhood move. The parameter fields A..H are
// interpreted per kind exactly as the fields, in declaration order, of the
// unexported struct the kind decodes to:
//
//	KindRelocate:      A=from  B=fpos C=to     D=tpos E=cust
//	KindExchange:      A=r1    B=p1   C=r2     D=p2   E=c1 F=c2
//	KindTwoOpt:        A=route B=i    C=j      D=ci   E=cj
//	KindTwoOptStar:    A=r1    B=p1   C=r2     D=p2   E=a1 F=a2
//	KindOrOpt:         A=route B=seg  C=dst    D=c1   E=c2
//	KindOrOptN:        A=route B=seg  C=length D=dst  E=c1 F=c2
//	KindRelocateNew:   A=from  B=fpos C=cust
//	KindCrossExchange: A=r1    B=p1   C=l1     D=r2   E=p2 F=l2 G=a1 H=a2
type MoveData struct {
	Kind                   MoveKind
	A, B, C, D, E, F, G, H int32
}

// decode rebuilds the per-kind move value on the stack; the methods below
// dispatch through it without allocating.

func (d MoveData) asRelocate() relocateMove {
	return relocateMove{from: int(d.A), fpos: int(d.B), to: int(d.C), tpos: int(d.D), cust: int(d.E)}
}

func (d MoveData) asExchange() exchangeMove {
	return exchangeMove{r1: int(d.A), p1: int(d.B), r2: int(d.C), p2: int(d.D), c1: int(d.E), c2: int(d.F)}
}

func (d MoveData) asTwoOpt() twoOptMove {
	return twoOptMove{route: int(d.A), i: int(d.B), j: int(d.C), ci: int(d.D), cj: int(d.E)}
}

func (d MoveData) asTwoOptStar() twoOptStarMove {
	return twoOptStarMove{r1: int(d.A), p1: int(d.B), r2: int(d.C), p2: int(d.D), a1: int(d.E), a2: int(d.F)}
}

func (d MoveData) asOrOpt() orOptMove {
	return orOptMove{route: int(d.A), seg: int(d.B), dst: int(d.C), c1: int(d.D), c2: int(d.E)}
}

func (d MoveData) asOrOptN() orOptNMove {
	return orOptNMove{route: int(d.A), seg: int(d.B), length: int(d.C), dst: int(d.D), c1: int(d.E), c2: int(d.F)}
}

func (d MoveData) asRelocateNew() relocateNewMove {
	return relocateNewMove{from: int(d.A), fpos: int(d.B), cust: int(d.C)}
}

func (d MoveData) asCrossExchange() crossExchangeMove {
	return crossExchangeMove{r1: int(d.A), p1: int(d.B), l1: int(d.C), r2: int(d.D), p2: int(d.E), l2: int(d.F), a1: int(d.G), a2: int(d.H)}
}

// Apply materializes the move on s, the solution it was proposed on,
// returning a new evaluated solution; s is not modified. It is the
// reference Delta is tested against.
func (d MoveData) Apply(in *vrptw.Instance, s *solution.Solution) *solution.Solution {
	switch d.Kind {
	case KindRelocate:
		return d.asRelocate().Apply(in, s)
	case KindExchange:
		return d.asExchange().Apply(in, s)
	case KindTwoOpt:
		return d.asTwoOpt().Apply(in, s)
	case KindTwoOptStar:
		return d.asTwoOptStar().Apply(in, s)
	case KindOrOpt:
		return d.asOrOpt().Apply(in, s)
	case KindOrOptN:
		return d.asOrOptN().Apply(in, s)
	case KindRelocateNew:
		return d.asRelocateNew().Apply(in, s)
	case KindCrossExchange:
		return d.asCrossExchange().Apply(in, s)
	}
	panic(fmt.Sprintf("operators: Apply on MoveData kind %d", d.Kind))
}

// Delta returns the objectives of the solution Apply would produce,
// agreeing with it to within floating-point noise (well below 1e-9), in
// time proportional to the changed segments rather than the touched
// routes. e must be the schedule cache of s. It only reads s and e, so
// the moves of one sweep may be evaluated concurrently.
func (d MoveData) Delta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval) solution.Objectives {
	switch d.Kind {
	case KindRelocate:
		return d.asRelocate().Delta(in, s, e)
	case KindExchange:
		return d.asExchange().Delta(in, s, e)
	case KindTwoOpt:
		return d.asTwoOpt().Delta(in, s, e)
	case KindTwoOptStar:
		return d.asTwoOptStar().Delta(in, s, e)
	case KindOrOpt:
		return d.asOrOpt().Delta(in, s, e)
	case KindOrOptN:
		return d.asOrOptN().Delta(in, s, e)
	case KindRelocateNew:
		return d.asRelocateNew().Delta(in, s, e)
	case KindCrossExchange:
		return d.asCrossExchange().Delta(in, s, e)
	}
	panic(fmt.Sprintf("operators: Delta on MoveData kind %d", d.Kind))
}

// Attribute is the move's tabu identity: the operator and the customers
// it touches.
func (d MoveData) Attribute() tabu.Attribute {
	switch d.Kind {
	case KindRelocate:
		return d.asRelocate().Attribute()
	case KindExchange:
		return d.asExchange().Attribute()
	case KindTwoOpt:
		return d.asTwoOpt().Attribute()
	case KindTwoOptStar:
		return d.asTwoOptStar().Attribute()
	case KindOrOpt:
		return d.asOrOpt().Attribute()
	case KindOrOptN:
		return d.asOrOptN().Attribute()
	case KindRelocateNew:
		return d.asRelocateNew().Attribute()
	case KindCrossExchange:
		return d.asCrossExchange().Attribute()
	}
	return 0
}
