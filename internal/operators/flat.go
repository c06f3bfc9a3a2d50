package operators

import (
	"fmt"

	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/vrptw"
)

// This file is the move encoding of the candidate engine. MoveData is a
// plain tagged union — one fixed-size struct, no pointers — so a sweep's
// moves live in reusable slices and proposing one never touches the heap.
// It is the package's only move type: every operator proposes MoveData,
// and every caller (the TSMO variants, the baselines, the benchmarks)
// applies, delta-evaluates and tabu-tags moves through it.

// MoveKind discriminates the MoveData union. KindNone is the zero value
// and marks "no move" (e.g. a checkpoint-restored candidate that is
// already materialized).
type MoveKind uint8

const (
	KindNone MoveKind = iota
	KindRelocate
	KindExchange
	KindTwoOpt
	KindTwoOptStar
	KindOrOpt
	KindOrOptN
	KindRelocateNew
	KindCrossExchange
)

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
// routes. e must be the schedule cache of s. The second result reports
// whether the delta could be computed; callers fall back to Apply when it
// is false.
func (d MoveData) Delta(in *vrptw.Instance, s *solution.Solution, e *solution.Eval) (solution.Objectives, bool) {
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

// OperatorName names the operator that produced the move. All returned
// strings are static so the call never allocates.
func (d MoveData) OperatorName() string {
	switch d.Kind {
	case KindRelocate:
		return "relocate"
	case KindExchange:
		return "exchange"
	case KindTwoOpt:
		return "2-opt"
	case KindTwoOptStar:
		return "2-opt*"
	case KindOrOpt:
		return "or-opt"
	case KindOrOptN:
		return orOptNName(int(d.C))
	case KindRelocateNew:
		return "relocate-new"
	case KindCrossExchange:
		return "cross-exchange"
	}
	return "none"
}

// orOptNName returns the static operator name of a length-l Or-opt move.
var orOptNNames = [...]string{"or-opt-0", "or-opt-1", "or-opt-2", "or-opt-3", "or-opt-4", "or-opt-5"}

func orOptNName(l int) string {
	if l >= 0 && l < len(orOptNNames) {
		return orOptNNames[l]
	}
	return fmt.Sprintf("or-opt-%d", l)
}
