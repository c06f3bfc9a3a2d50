// Package operators implements the five neighborhood operators of the
// paper (§II.B): Relocate, Exchange, 2-opt, 2-opt* and Or-opt, each guarded
// by the local feasibility criterion — a move is rejected when one of the
// arcs it creates obviously violates a time window (earliest possible
// departure from i plus travel already exceeds j's due date) or when a
// route's demand would exceed the vehicle capacity. The criterion is weak
// enough that tardy solutions still occur in the search trajectory and
// strong enough that the search finds its way back to feasibility.
//
// An operator is its MoveKind: the kind proposes moves of itself, and the
// MoveData it returns applies, delta-evaluates and tabu-tags them.
//
// A Generator draws moves from the operators with equal probability until
// the requested neighborhood size is reached, re-drawing the operator when
// a proposal fails (paper §III.B).
package operators

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// All returns the paper's five operators, in the order Relocate,
// Exchange, 2-opt, 2-opt*, Or-opt.
func All() []MoveKind {
	return []MoveKind{KindRelocate, KindExchange, KindTwoOpt, KindTwoOptStar, KindOrOpt}
}

// Propose attempts to generate one random move of kind k on s that passes
// the local feasibility criterion, drawing from the full neighborhood. It
// reports failure when it finds none within its internal attempt budget.
// It never heap-allocates.
func (k MoveKind) Propose(in *vrptw.Instance, s *solution.Solution, r *rng.Rand) (MoveData, bool) {
	switch k {
	case KindRelocate:
		return proposeRelocate(in, s, r)
	case KindExchange:
		return proposeExchange(in, s, r)
	case KindTwoOpt:
		return proposeTwoOpt(in, s, r)
	case KindTwoOptStar:
		return proposeTwoOptStar(in, s, r)
	case KindOrOpt:
		return proposeOrOpt(in, s, r)
	case KindOrOptN:
		return proposeOrOptN(in, s, r)
	case KindRelocateNew:
		return proposeRelocateNew(in, s, r)
	case KindCrossExchange:
		return proposeCrossExchange(in, s, r)
	}
	panic(fmt.Sprintf("operators: Propose on kind %d", k))
}

// proposeAttempts bounds the internal retries of a single Propose call.
const proposeAttempts = 30

// granFallbackBudget is how many times per sweep each operator may fall
// back to its dense proposal path after the granular path comes up empty.
// Raising it admits more dense-path moves per sweep (an unbounded budget
// turns the sweep dense again); measured over budgets 1, 2, 4 and
// unbounded at equal evaluation budget, final quality differences stay
// within seed noise, so the budget is set to the cheapest setting — one
// fallback, after which further draws of the operator fail fast.
const granFallbackBudget = 1

// Generator draws random moves on a solution from a set of operators with
// equal probability. The zero value is unusable; construct with
// NewGenerator. A Generator is not safe for concurrent use: it shares the
// caller's random stream and memoizes the schedule cache of the last
// evaluated solution. Its CandidatesInto may evaluate moves on a helper
// goroutine of its own, which only reads the swept solution and its
// schedule cache and has finished with both when the call returns.
type Generator struct {
	in  *vrptw.Instance
	ops []MoveKind
	// Telemetry, when non-nil, counts delta-evaluated candidates, the
	// SpliceMetrics exits of the schedule caches, and the generation side
	// of the operator funnel: proposals, proposal exhaustions and
	// granular-list fallbacks, per move kind. Proposals and evaluations
	// are added once per sweep.
	// nil (the default) disables it at one branch per sweep and per
	// failed draw.
	Telemetry *telemetry.Telemetry
	// Granular, when non-nil, switches MovesInto to the granular proposal
	// paths: operators draw only moves whose key created arc lies in the
	// sparse k-nearest graph, falling back to the full proposal path when
	// the granular draw budget is exhausted.
	Granular *vrptw.NeighborLists

	lastEval *solution.Eval
	granFB   []uint8 // per-sweep fallback count, aligned with ops; granular path memoized dead at the budget
	proposed []int   // per-sweep proposal count, aligned with ops
	helpFn   func()  // g.help, bound once so starting a helper allocates nothing
	sw       sweep   // state shared with the helper goroutine (sweep.go)
}

// NewGenerator returns a Generator over the given operators (All() if ops
// is nil).
func NewGenerator(in *vrptw.Instance, ops []MoveKind) *Generator {
	if ops == nil {
		ops = All()
	}
	g := &Generator{in: in, ops: ops, granFB: make([]uint8, len(ops)), proposed: make([]int, len(ops))}
	g.helpFn = g.help
	return g
}

// eval returns the schedule cache for s, rebuilding only when s differs
// from the last evaluated solution.
func (g *Generator) eval(s *solution.Solution) *solution.Eval {
	if g.lastEval == nil {
		g.lastEval = solution.NewEval(g.in, s)
	} else if g.lastEval.Solution() != s {
		g.lastEval.Reset(g.in, s)
	}
	g.lastEval.Telemetry = g.Telemetry
	return g.lastEval
}

// failuresPerMove bounds the failed proposals of one sweep at this many
// per requested move, so a solution with very few feasible moves yields a
// short neighborhood instead of livelocking the sweep.
const failuresPerMove = 50

// CandidateBuffer holds the reusable storage of one candidate sweep: the
// flat move list, the index-aligned delta objectives, the sweep's
// non-dominated front, and the customer table of the granular proposal
// paths. One buffer belongs to exactly one caller (a searcher or a worker)
// and is overwritten by every MovesInto/CandidatesInto call — after
// warm-up a full sweep runs at zero heap allocations.
type CandidateBuffer struct {
	Data []MoveData
	Objs []solution.Objectives
	// Front holds the ascending indices of the moves of the last
	// CandidatesInto sweep whose objectives no other move of the sweep
	// dominates, duplicates kept: pareto.NondominatedIndices(Objs).
	Front []int
	pos   PosIndex
}

// MovesInto proposes up to size moves on s into buf.Data (reusing its
// storage), drawing from the granular paths when g.Granular is set. Each
// draw picks an operator uniformly; failed proposals consume a budget of
// failuresPerMove*size per sweep, so fewer than size moves are returned
// only when that budget is exhausted. A granular path that finds nothing
// within its attempt budget falls back to the full path before the
// failure is charged, so granular search degrades — never livelocks — on
// solutions whose sparse neighborhoods are exhausted. The
// solution is fixed for the whole sweep, so each operator's fallbacks are
// memoized: after granFallbackBudget fallbacks, further draws of the same
// operator count as exhausted and the sweep redraws — keeping the
// neighborhood granular (the point of the sparse graph) instead of
// silently degrading to the dense proposal path.
func (g *Generator) MovesInto(buf *CandidateBuffer, s *solution.Solution, r *rng.Rand, size int) {
	buf.Data = resize(buf.Data, max(size, 0))
	buf.Data = buf.Data[:g.propose(buf, s, r, false)]
}

// propose is MovesInto's proposal loop: it fills buf.Data, already sized
// to the request, from the front and returns how many moves it proposed,
// counting them per move kind in the operator funnel. With publish set it
// stores the count into the sweep's published count every publishBatch
// moves, for the helper to claim (sweep.go).
func (g *Generator) propose(buf *CandidateBuffer, s *solution.Solution, r *rng.Rand, publish bool) int {
	size := len(buf.Data)
	budget := failuresPerMove * size
	granular := g.Granular != nil
	if granular {
		buf.pos.Reset(g.in, s)
		for i := range g.granFB {
			g.granFB[i] = 0
		}
	}
	clear(g.proposed)
	n := 0
	for n < size && budget > 0 {
		oi := r.Intn(len(g.ops))
		k := g.ops[oi]
		var d MoveData
		var ok bool
		switch {
		case !granular:
			d, ok = k.Propose(g.in, s, r)
		case g.granFB[oi] < granFallbackBudget:
			d, ok = k.proposeGranular(g.in, s, &buf.pos, g.Granular, r)
			if !ok {
				g.granFB[oi]++
				g.Telemetry.IncOp(uint8(k), k.String(), telemetry.OpFallbacks)
				d, ok = k.Propose(g.in, s, r)
			}
		default:
			// Memoized: the granular path already exhausted on this
			// solution and the fallback budget is spent; fail the draw.
		}
		if ok {
			buf.Data[n] = d
			n++
			g.proposed[oi]++
			if publish && n%publishBatch == 0 {
				g.sw.published.Store(uint32(n))
			}
		} else {
			g.Telemetry.IncOp(uint8(k), k.String(), telemetry.OpExhausted)
			budget--
		}
	}
	if g.Telemetry != nil {
		for oi, c := range g.proposed {
			g.Telemetry.AddOp(uint8(g.ops[oi]), g.ops[oi].String(), telemetry.OpProposed, c)
		}
	}
	return n
}

// EvalDataInto delta-evaluates an already-proposed flat move span against
// s's schedule cache into objs (len(objs) == len(data)). Evaluation is
// deterministic in (s, data), so a span evaluated anywhere — by any
// process, or re-evaluated after a fault — yields bit-identical
// objectives.
func (g *Generator) EvalDataInto(s *solution.Solution, data []MoveData, objs []solution.Objectives) {
	if len(data) == 0 {
		return
	}
	e := g.eval(s)
	for i, d := range data {
		objs[i] = d.Delta(g.in, s, e)
	}
	g.Telemetry.Add(telemetry.DeltaFast, len(data))
}

// before returns the site preceding position p of route (depot if p == 0).
func before(route []int, p int) int {
	if p == 0 {
		return 0
	}
	return route[p-1]
}

// remAt returns the customer at position i of the route with the length-l
// segment starting at seg removed, without building the remainder.
func remAt(route []int, seg, l, i int) int {
	if i < seg {
		return route[i]
	}
	return route[i+l]
}

// after returns the site following position p of route (depot if p is the
// last position).
func after(route []int, p int) int {
	if p == len(route)-1 {
		return 0
	}
	return route[p+1]
}

// attribute mixes an operator tag and up to two customer IDs into a tabu
// attribute (splitmix64 finalizer).
func attribute(op uint64, a, b int) tabu.Attribute {
	x := op<<56 ^ uint64(uint32(a))<<24 ^ uint64(uint32(b))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return tabu.Attribute(x)
}

// Operator tags used in attributes.
const (
	tagRelocate = iota + 1
	tagExchange
	tagTwoOpt
	tagTwoOptStar
	tagOrOpt
)

// concat builds a fresh route from the given segments.
func concat(segs ...[]int) []int {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	out := make([]int, 0, n)
	for _, s := range segs {
		out = append(out, s...)
	}
	return out
}
