package solution

// Delta-evaluation support: per-route forward/backward schedules
// (Kindervater & Savelsbergh style) that let move operators compute the
// objective change of splicing, reversing or transplanting route segments
// without materializing the resulting routes. The forward arrays replay
// exactly the arithmetic of RouteMetrics, so a full splice walk reproduces
// its result bit for bit; the cached-suffix shortcuts introduce only the
// floating-point noise of subtracting prefix sums (well below 1e-9).

import (
	"math"

	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// RouteEval caches the schedules of one route. All arrays have length
// len(route)+1.
//
// The forward arrays are prefix states: index i describes the vehicle
// after serving the first i customers. Depart[0] is the depot departure
// (the depot ready time); Dist and Tard start at 0 and exclude the return
// leg to the depot.
//
// Latest is the backward schedule: Latest[j] for j < len(route) is the
// latest arrival time at route[j] for which serving route[j:] and
// returning to the depot incurs zero tardiness (-Inf when even the
// earliest service cannot avoid downstream tardiness), and
// Latest[len(route)] is the depot due date — the latest punctual return.
type RouteEval struct {
	Depart []float64
	Dist   []float64
	Tard   []float64
	Latest []float64
}

// build fills the arrays for route, reusing existing capacity.
func (re *RouteEval) build(in *vrptw.Instance, route []int) {
	k := len(route)
	re.Depart = sized(re.Depart, k+1)
	re.Dist = sized(re.Dist, k+1)
	re.Tard = sized(re.Tard, k+1)
	re.Latest = sized(re.Latest, k+1)

	depot := &in.Sites[0]
	t := depot.Ready
	var dist, tard float64
	re.Depart[0], re.Dist[0], re.Tard[0] = t, 0, 0
	prev := 0
	for i, c := range route {
		s := &in.Sites[c]
		leg := in.Dist(prev, c)
		dist += leg
		t += leg
		if t < s.Ready {
			t = s.Ready
		}
		if t > s.Due {
			tard += t - s.Due
		}
		t += s.Service
		re.Depart[i+1], re.Dist[i+1], re.Tard[i+1] = t, dist, tard
		prev = c
	}

	re.Latest[k] = depot.Due
	next := 0
	for j := k - 1; j >= 0; j-- {
		c := route[j]
		s := &in.Sites[c]
		latest := re.Latest[j+1] - in.Dist(c, next) - s.Service
		switch {
		case latest < s.Ready:
			re.Latest[j] = math.Inf(-1)
		case latest > s.Due:
			re.Latest[j] = s.Due
		default:
			re.Latest[j] = latest
		}
		next = c
	}
}

func sized(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Eval is the delta-evaluation cache of one solution: a RouteEval per
// route. It is bound to a specific *Solution; derive new solutions first
// and Reset the cache afterwards. The metric methods (SpliceMetrics,
// InsertMetrics, ReplaceMetrics, RemoveMetrics) only read the cache and
// count into Telemetry's atomic counters, so they may be called
// concurrently; Reset may not run concurrently with them or with itself.
type Eval struct {
	sol *Solution
	in  *vrptw.Instance
	R   []*RouteEval
	// spare is the schedule list of the binding before the current one;
	// Reset fills it with the new binding's schedules and swaps it with R.
	spare []*RouteEval
	// Telemetry, when non-nil, classifies every SpliceMetrics exit (prefix
	// fold, suffix early exit, resynchronization, full walk). nil — the
	// default — records nothing and costs one branch per exit.
	Telemetry *telemetry.Telemetry
}

// NewEval builds the schedule cache for every route of s.
func NewEval(in *vrptw.Instance, s *Solution) *Eval {
	e := &Eval{}
	e.Reset(in, s)
	return e
}

// Reset rebinds the cache to s. A route s shares with the bound solution
// on the same instance (SharedRoute) keeps its schedules, handed over by
// pointer; only the other routes are rebuilt. A solution derived by
// WithRoutes shares every route its move did not touch, so a search step
// rebuilds the one or two routes it changed, not all of them; an
// unrelated solution rebuilds everything, into reused buffers.
func (e *Eval) Reset(in *vrptw.Instance, s *Solution) {
	var old [][]int // the bound routes; schedules depend on the instance too
	if e.sol != nil && e.in == in {
		old = e.sol.Routes
	}
	next := e.spare
	if cap(next) < len(s.Routes) {
		next = append(next[:cap(next)], make([]*RouteEval, len(s.Routes)-cap(next))...)
	}
	next = next[:len(s.Routes)]
	hint := 0
	for i, r := range s.Routes {
		if j := SharedRoute(old, r, hint); j >= 0 {
			next[i], e.R[j] = e.R[j], next[i]
			hint = j + 1
			continue
		}
		if next[i] == nil {
			next[i] = new(RouteEval)
		}
		next[i].build(in, r)
	}
	e.R, e.spare = next, e.R
	e.sol, e.in = s, in
}

// SharedRoute returns the index of the route of old that route shares —
// the same backing array and the same length — searching from hint and
// wrapping around, or -1 when none does. Route slices are immutable once
// attached, so a shared route has equal content, and anything derived
// from a route alone carries over with it. WithRoutes keeps the routes it
// shares in order, so a caller walking a derived solution's routes passes
// one past the last match as the next hint and finds each in one probe; a
// permuted route list is matched too. Empty routes are never shared.
func SharedRoute(old [][]int, route []int, hint int) int {
	if len(route) == 0 {
		return -1
	}
	for k := range old {
		j := hint + k
		if j >= len(old) {
			j -= len(old)
		}
		if rr := old[j]; len(rr) == len(route) && &rr[0] == &route[0] {
			return j
		}
	}
	return -1
}

// Solution returns the solution this cache was built for.
func (e *Eval) Solution() *Solution { return e.sol }

// Seg is one building block of a spliced route: the half-open position
// range [From, To) of route Route of the cached solution, traversed in
// reverse when Rev is set — or, when Route is negative, the single
// customer Cust.
type Seg struct {
	Route    int
	From, To int
	Rev      bool
	Cust     int
}

// Piece references route[From:To] of the cached solution's route r.
func Piece(r, from, to int) Seg { return Seg{Route: r, From: from, To: to} }

// ReversedPiece references route[From:To] traversed back to front.
func ReversedPiece(r, from, to int) Seg { return Seg{Route: r, From: from, To: to, Rev: true} }

// Single is a segment holding one customer.
func Single(cust int) Seg { return Seg{Route: -1, Cust: cust} }

// SpliceMetrics computes the travel distance and tardiness of the route
// formed by concatenating segs — the values RouteMetrics would return on
// the materialized route — without building it. Cost is proportional to
// the changed region: a leading prefix of a cached route is folded in O(1),
// interior segments are walked customer by customer, and a trailing suffix
// of a cached route terminates as soon as the new schedule either provably
// incurs no further tardiness (arrival at or before Latest) or
// resynchronizes with the cached schedule (equal departure times).
func (e *Eval) SpliceMetrics(in *vrptw.Instance, segs ...Seg) (dist, tard float64) {
	e.Telemetry.Inc(telemetry.SpliceCalls)
	w := walk{t: in.Sites[0].Ready}
	for si := range segs {
		seg := &segs[si]
		if seg.Route < 0 {
			w.step(in, seg.Cust)
			continue
		}
		if seg.From >= seg.To {
			continue
		}
		route := e.sol.Routes[seg.Route]

		// A leading prefix of a cached route: fold in O(1).
		if si == 0 && !seg.Rev && seg.From == 0 {
			w = e.head(in, seg.Route, seg.To)
			continue
		}

		// A trailing suffix of a cached route: walk with early exit.
		if si == len(segs)-1 && !seg.Rev && seg.To == len(route) {
			return e.tail(in, w, seg.Route, seg.From)
		}

		// Generic interior segment: walk customer by customer.
		if seg.Rev {
			for j := seg.To - 1; j >= seg.From; j-- {
				w.step(in, route[j])
			}
		} else {
			for j := seg.From; j < seg.To; j++ {
				w.step(in, route[j])
			}
		}
	}
	return e.home(in, w)
}

// InsertMetrics returns the SpliceMetrics of route r with customer c
// inserted at position p — Piece(r, 0, p), Single(c), Piece(r, p, len) —
// without building the segments: the same arithmetic in the same order,
// and the same splice counters.
func (e *Eval) InsertMetrics(in *vrptw.Instance, r, p, c int) (dist, tard float64) {
	e.Telemetry.Inc(telemetry.SpliceCalls)
	w := e.head(in, r, p)
	w.step(in, c)
	return e.tail(in, w, r, p)
}

// ReplaceMetrics returns the SpliceMetrics of route r with the customer
// at position p replaced by c — Piece(r, 0, p), Single(c),
// Piece(r, p+1, len) — as InsertMetrics does.
func (e *Eval) ReplaceMetrics(in *vrptw.Instance, r, p, c int) (dist, tard float64) {
	e.Telemetry.Inc(telemetry.SpliceCalls)
	w := e.head(in, r, p)
	w.step(in, c)
	return e.tail(in, w, r, p+1)
}

// RemoveMetrics returns the SpliceMetrics of route r with the customer at
// position p removed — Piece(r, 0, p), Piece(r, p+1, len) — as
// InsertMetrics does.
func (e *Eval) RemoveMetrics(in *vrptw.Instance, r, p int) (dist, tard float64) {
	e.Telemetry.Inc(telemetry.SpliceCalls)
	return e.tail(in, e.head(in, r, p), r, p+1)
}

// walk is the state of a vehicle driving a spliced route: its departure
// time from, and the distance and tardiness accumulated up to, prev, the
// last site served.
type walk struct {
	t, dist, tard float64
	prev          int
}

// step serves customer c next, with exactly RouteMetrics' arithmetic.
func (w *walk) step(in *vrptw.Instance, c int) {
	s := &in.Sites[c]
	leg := in.Dist(w.prev, c)
	w.dist += leg
	w.t += leg
	if w.t < s.Ready {
		w.t = s.Ready
	}
	if w.t > s.Due {
		w.tard += w.t - s.Due
	}
	w.t += s.Service
	w.prev = c
}

// head returns the state after serving the first p customers of cached
// route r, folded from its forward arrays in O(1); for p = 0 it is the
// depot departure.
func (e *Eval) head(in *vrptw.Instance, r, p int) walk {
	if p == 0 {
		return walk{t: in.Sites[0].Ready}
	}
	e.Telemetry.Inc(telemetry.SplicePrefixFolds)
	re := e.R[r]
	return walk{t: re.Depart[p], dist: re.Dist[p], tard: re.Tard[p], prev: e.sol.Routes[r][p-1]}
}

// tail finishes the splice w with cached route r's suffix from position
// from and the return to the depot. The suffix walk stops early once the
// vehicle arrives at or before Latest — the rest of the suffix is served
// without tardiness, and its arcs are time-independent — or departs at
// the cached time, after which the rest behaves exactly as cached.
func (e *Eval) tail(in *vrptw.Instance, w walk, r, from int) (dist, tard float64) {
	route := e.sol.Routes[r]
	re := e.R[r]
	for j := from; j < len(route); j++ {
		c := route[j]
		s := &in.Sites[c]
		leg := in.Dist(w.prev, c)
		arr := w.t + leg
		if arr <= re.Latest[j] {
			e.Telemetry.Inc(telemetry.SpliceSuffixEarlyExits)
			return w.dist + leg + e.sol.Dist[r] - re.Dist[j+1], w.tard
		}
		w.dist += leg
		if arr < s.Ready {
			arr = s.Ready
		}
		if arr > s.Due {
			w.tard += arr - s.Due
		}
		w.t = arr + s.Service
		w.prev = c
		if w.t == re.Depart[j+1] {
			e.Telemetry.Inc(telemetry.SpliceSuffixResyncs)
			return w.dist + e.sol.Dist[r] - re.Dist[j+1], w.tard + e.sol.Tard[r] - re.Tard[j+1]
		}
	}
	return e.home(in, w)
}

// home closes the splice w with the return to the depot: no suffix
// shortcut applied, so the splice was simulated all the way.
func (e *Eval) home(in *vrptw.Instance, w walk) (dist, tard float64) {
	e.Telemetry.Inc(telemetry.SpliceFullWalks)
	depot := &in.Sites[0]
	leg := in.Dist(w.prev, 0)
	w.dist += leg
	w.t += leg
	if w.t > depot.Due {
		w.tard += w.t - depot.Due
	}
	return w.dist, w.tard
}
