package solution

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

func evalInstance(t testing.TB, class vrptw.Class, n int, seed uint64) *vrptw.Instance {
	t.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: class, N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// capacityFill builds a capacity-feasible solution by filling routes with
// customers in ID order.
func capacityFill(in *vrptw.Instance) *Solution {
	var routes [][]int
	var cur []int
	var load float64
	for c := 1; c <= in.N(); c++ {
		d := in.Sites[c].Demand
		if load+d > in.Capacity {
			routes = append(routes, cur)
			cur, load = nil, 0
		}
		cur = append(cur, c)
		load += d
	}
	if len(cur) > 0 {
		routes = append(routes, cur)
	}
	return New(in, routes)
}

// suffixMetrics is the reference simulator: it serves route[j:] starting
// with the vehicle arriving at route[j] at time arr and returns the
// tardiness incurred, including the late-depot-return term.
func suffixMetrics(in *vrptw.Instance, route []int, j int, arr float64) float64 {
	var tard float64
	t := arr
	prev := route[j]
	s := &in.Sites[prev]
	if t < s.Ready {
		t = s.Ready
	}
	if t > s.Due {
		tard += t - s.Due
	}
	t += s.Service
	for _, c := range route[j+1:] {
		s := &in.Sites[c]
		t += in.Dist(prev, c)
		if t < s.Ready {
			t = s.Ready
		}
		if t > s.Due {
			tard += t - s.Due
		}
		t += s.Service
		prev = c
	}
	t += in.Dist(prev, 0)
	if t > in.Sites[0].Due {
		tard += t - in.Sites[0].Due
	}
	return tard
}

func TestRouteEvalForwardArrays(t *testing.T) {
	in := evalInstance(t, vrptw.R1, 60, 3)
	s := capacityFill(in)
	e := NewEval(in, s)
	for ri, route := range s.Routes {
		re := e.R[ri]
		k := len(route)
		dist, tard, _ := RouteMetrics(in, route)
		// The cached prefixes exclude the return leg; add it back.
		last := route[k-1]
		wantDist := re.Dist[k] + in.Dist(last, 0)
		if wantDist != dist {
			t.Errorf("route %d: prefix dist %g + return leg != RouteMetrics dist %g", ri, wantDist, dist)
		}
		ret := re.Depart[k] + in.Dist(last, 0)
		wantTard := re.Tard[k]
		if ret > in.Sites[0].Due {
			wantTard += ret - in.Sites[0].Due
		}
		if wantTard != tard {
			t.Errorf("route %d: prefix tard %g != RouteMetrics tard %g", ri, wantTard, tard)
		}
		// Prefix monotonicity and positional consistency.
		for p := 1; p <= k; p++ {
			if re.Dist[p] < re.Dist[p-1] || re.Tard[p] < re.Tard[p-1] {
				t.Fatalf("route %d: non-monotone prefix at %d", ri, p)
			}
		}
	}
}

func TestRouteEvalLatestSchedule(t *testing.T) {
	// Latest[j] must be exactly the threshold arrival: arriving at Latest[j]
	// serves the suffix without tardiness, arriving any later does not.
	in := evalInstance(t, vrptw.R1, 80, 11)
	s := capacityFill(in)
	e := NewEval(in, s)
	for ri, route := range s.Routes {
		re := e.R[ri]
		for j := range route {
			latest := re.Latest[j]
			if math.IsInf(latest, -1) {
				// Even the earliest possible arrival is tardy downstream.
				if got := suffixMetrics(in, route, j, 0); got <= 0 {
					t.Errorf("route %d pos %d: Latest=-Inf but earliest arrival has tardiness %g", ri, j, got)
				}
				continue
			}
			if got := suffixMetrics(in, route, j, latest); got != 0 {
				t.Errorf("route %d pos %d: arrival at Latest=%g has tardiness %g, want 0", ri, j, latest, got)
			}
			if got := suffixMetrics(in, route, j, latest+1e-3); got <= 0 {
				t.Errorf("route %d pos %d: arrival after Latest=%g still has zero tardiness", ri, j, latest)
			}
		}
		// Latest[k] is the depot due date.
		if re.Latest[len(route)] != in.Sites[0].Due {
			t.Errorf("route %d: Latest[k] = %g, want depot due %g", ri, re.Latest[len(route)], in.Sites[0].Due)
		}
	}
}

func TestSpliceMetricsWholeRouteIdentity(t *testing.T) {
	// A single segment covering the whole route must reproduce RouteMetrics
	// bit for bit: the prefix fold reuses the very sums RouteMetrics builds.
	for _, class := range []vrptw.Class{vrptw.R1, vrptw.C1, vrptw.RC1, vrptw.R2} {
		in := evalInstance(t, class, 50, uint64(class)+1)
		s := capacityFill(in)
		e := NewEval(in, s)
		for ri, route := range s.Routes {
			dist, tard, _ := RouteMetrics(in, route)
			gd, gt := e.SpliceMetrics(in, Piece(ri, 0, len(route)))
			if gd != dist || gt != tard {
				t.Errorf("class %v route %d: SpliceMetrics = (%g, %g), RouteMetrics = (%g, %g)",
					class, ri, gd, gt, dist, tard)
			}
		}
	}
}

// flatten materializes a splice composition into a plain customer sequence.
func flatten(s *Solution, segs []Seg) []int {
	var out []int
	for _, seg := range segs {
		if seg.Route < 0 {
			out = append(out, seg.Cust)
			continue
		}
		route := s.Routes[seg.Route]
		if seg.Rev {
			for j := seg.To - 1; j >= seg.From; j-- {
				out = append(out, route[j])
			}
		} else {
			out = append(out, route[seg.From:seg.To]...)
		}
	}
	return out
}

func TestSpliceMetricsRandomSplices(t *testing.T) {
	// Random compositions of cached pieces, reversed pieces and singletons
	// must agree with RouteMetrics on the materialized sequence to 1e-9.
	// The generator is biased toward leading prefixes and trailing suffixes
	// so the O(1) shortcut branches are exercised constantly.
	const tol = 1e-9
	for _, n := range []int{30, 120} {
		in := evalInstance(t, vrptw.RC1, n, uint64(n))
		s := capacityFill(in)
		e := NewEval(in, s)
		r := rng.New(uint64(n) * 7)
		for trial := 0; trial < 2000; trial++ {
			var segs []Seg
			nseg := 1 + r.Intn(4)
			for si := 0; si < nseg; si++ {
				switch r.Intn(4) {
				case 0:
					segs = append(segs, Single(1+r.Intn(in.N())))
				default:
					ri := r.Intn(len(s.Routes))
					k := len(s.Routes[ri])
					from := r.Intn(k + 1)
					to := from + r.Intn(k-from+1)
					if si == 0 && r.Intn(2) == 0 {
						from = 0 // exercise the prefix fold
					}
					if si == nseg-1 && r.Intn(2) == 0 {
						to = k // exercise the suffix shortcuts
					}
					if r.Intn(3) == 0 {
						segs = append(segs, ReversedPiece(ri, from, to))
					} else {
						segs = append(segs, Piece(ri, from, to))
					}
				}
			}
			gd, gt := e.SpliceMetrics(in, segs...)
			seq := flatten(s, segs)
			if len(seq) == 0 {
				continue // splices never produce empty routes in practice
			}
			wd, wt, _ := RouteMetrics(in, seq)
			if math.Abs(gd-wd) > tol || math.Abs(gt-wt) > tol {
				t.Fatalf("n=%d trial %d segs %+v: SpliceMetrics = (%g, %g), RouteMetrics = (%g, %g)",
					n, trial, segs, gd, gt, wd, wt)
			}
		}
	}
}

func TestEvalResetReusesBuffers(t *testing.T) {
	in := evalInstance(t, vrptw.R1, 40, 5)
	a := capacityFill(in)
	// A second solution with a different route structure.
	var rev []int
	for c := in.N(); c >= 1; c-- {
		rev = append(rev, c)
	}
	half := len(rev) / 2
	b := New(in, [][]int{rev[:half], rev[half:]})

	e := NewEval(in, a)
	if e.Solution() != a {
		t.Fatal("Eval not bound to its solution")
	}
	e.Reset(in, b)
	if e.Solution() != b {
		t.Fatal("Reset did not rebind the cache")
	}
	fresh := NewEval(in, b)
	if len(e.R) != len(fresh.R) {
		t.Fatalf("reused cache has %d routes, want %d", len(e.R), len(fresh.R))
	}
	for ri := range e.R {
		for p := range e.R[ri].Depart {
			if e.R[ri].Depart[p] != fresh.R[ri].Depart[p] ||
				e.R[ri].Dist[p] != fresh.R[ri].Dist[p] ||
				e.R[ri].Tard[p] != fresh.R[ri].Tard[p] ||
				e.R[ri].Latest[p] != fresh.R[ri].Latest[p] {
				t.Fatalf("route %d pos %d: reused cache differs from fresh build", ri, p)
			}
		}
	}
}

// TestEvalRebind checks that Reset carries the schedules of shared routes
// over to a derived solution — the path every search step and every
// dynamic splice takes: routes the derived solution shares with the bound
// one keep their arrays, wherever they moved to, routes with new content
// are rebuilt, and every route agrees with a from-scratch cache.
func TestEvalRebind(t *testing.T) {
	in := evalInstance(t, vrptw.R1, 60, 9)
	s := capacityFill(in)
	if len(s.Routes) < 3 {
		t.Fatalf("need at least 3 routes, capacityFill produced %d", len(s.Routes))
	}
	e := NewEval(in, s)

	// Derive a solution that permutes the untouched routes, reverses one
	// (changed content → rebuilt) and splits another into two new routes.
	last := len(s.Routes) - 1
	reversed := make([]int, len(s.Routes[0]))
	for i, c := range s.Routes[0] {
		reversed[len(reversed)-1-i] = c
	}
	split := s.Routes[1]
	half := len(split) / 2
	if half == 0 {
		t.Fatalf("route 1 too short to split: %v", split)
	}
	routes := [][]int{s.Routes[last], reversed, split[:half], split[half:]}
	from := []int{last, -1, -1, -1}
	for ri := 2; ri < last; ri++ {
		routes = append(routes, s.Routes[ri])
		from = append(from, ri)
	}
	derived := New(in, routes)
	if len(derived.Routes) != len(routes) {
		t.Fatalf("New dropped routes: %d of %d survive", len(derived.Routes), len(routes))
	}

	// Remember the backing arrays of the shared routes' schedules: Reset
	// must carry them over, not recompute them.
	backing := map[*float64]bool{}
	adoptedBacking := map[int]*float64{}
	for ri := range e.R {
		backing[&e.R[ri].Depart[0]] = true
		if ri == last || ri >= 2 {
			adoptedBacking[ri] = &e.R[ri].Depart[0]
		}
	}

	e.Reset(in, derived)
	if e.Solution() != derived {
		t.Fatal("Reset did not rebind the cache to the derived solution")
	}
	if len(e.R) != len(derived.Routes) {
		t.Fatalf("cache has %d routes, want %d", len(e.R), len(derived.Routes))
	}
	for i, src := range from {
		if src < 0 {
			if backing[&e.R[i].Depart[0]] {
				t.Errorf("route %d is new but carries a bound route's schedule", i)
			}
			continue
		}
		if &e.R[i].Depart[0] != adoptedBacking[src] {
			t.Errorf("route %d: shared with route %d but its schedule was rebuilt, not kept", i, src)
		}
	}

	// Every route — adopted or rebuilt — must agree with a from-scratch
	// cache of the derived solution.
	sameEval := func(what string) {
		t.Helper()
		fresh := NewEval(in, derived)
		for ri := range fresh.R {
			for p := range fresh.R[ri].Depart {
				if e.R[ri].Depart[p] != fresh.R[ri].Depart[p] ||
					e.R[ri].Dist[p] != fresh.R[ri].Dist[p] ||
					e.R[ri].Tard[p] != fresh.R[ri].Tard[p] ||
					e.R[ri].Latest[p] != fresh.R[ri].Latest[p] {
					t.Fatalf("%s: route %d pos %d: cache differs from a fresh build", what, ri, p)
				}
			}
		}
	}
	sameEval("derived")

	// A one-route step, as WithRoutes derives it, and back to an earlier
	// solution: each keeps every shared schedule.
	step := derived.WithRoutes(in, []int{1}, [][]int{s.Routes[0]})
	e.Reset(in, step)
	derived = step
	sameEval("step")

	// The same routes on another instance (same size, other data) share
	// nothing: schedules depend on the instance's data.
	bound := map[*float64]bool{}
	for ri := range e.R {
		bound[&e.R[ri].Depart[0]] = true
	}
	other := evalInstance(t, vrptw.R1, 60, 10)
	e.Reset(other, derived)
	for ri := range e.R {
		if bound[&e.R[ri].Depart[0]] {
			t.Fatalf("route %d kept its schedule across a change of instance", ri)
		}
	}
	in = other
	sameEval("other instance")
}

func TestSpliceMetricsSingleCustomerRoute(t *testing.T) {
	in := evalInstance(t, vrptw.R2, 10, 7)
	s := New(in, [][]int{{1}, {2, 3, 4, 5, 6, 7, 8, 9, 10}})
	e := NewEval(in, s)
	dist, tard, _ := RouteMetrics(in, []int{1})
	gd, gt := e.SpliceMetrics(in, Piece(0, 0, 1))
	if gd != dist || gt != tard {
		t.Errorf("singleton route: SpliceMetrics = (%g, %g), want (%g, %g)", gd, gt, dist, tard)
	}
	// A pure Single seg spells out a brand-new one-customer route.
	gd, gt = e.SpliceMetrics(in, Single(1))
	if gd != dist || gt != tard {
		t.Errorf("Single(1): SpliceMetrics = (%g, %g), want (%g, %g)", gd, gt, dist, tard)
	}
}

// TestSingleCustomerSplicesMatch holds InsertMetrics, ReplaceMetrics and
// RemoveMetrics to SpliceMetrics on the equivalent segment lists: at
// every position of every route — singleton routes first, in the middle
// and last among them — and for every customer spliced in, they return
// the same bits and add the same amount to every splice counter.
func TestSingleCustomerSplicesMatch(t *testing.T) {
	counters := []telemetry.CounterID{telemetry.SpliceCalls, telemetry.SplicePrefixFolds,
		telemetry.SpliceSuffixEarlyExits, telemetry.SpliceSuffixResyncs, telemetry.SpliceFullWalks}
	exits := map[telemetry.CounterID]int64{}
	for _, class := range []vrptw.Class{vrptw.R1, vrptw.C1, vrptw.RC1} {
		in := evalInstance(t, class, 40, 3)
		filled := capacityFill(in).Routes
		if len(filled) < 3 {
			t.Fatalf("%v: need at least 3 routes, capacityFill produced %d", class, len(filled))
		}
		first, mid, last := filled[0], filled[1], filled[len(filled)-1]
		routes := [][]int{first[:1], first[1:], mid[:1], mid[1:]}
		routes = append(routes, filled[2:len(filled)-1]...)
		routes = append(routes, last[:len(last)-1], last[len(last)-1:])
		s := New(in, routes)
		e := NewEval(in, s)
		entry, ref := telemetry.New(nil, nil), telemetry.New(nil, nil)
		same := func(what string, r, p, c int, d, tard, wd, wtard float64) {
			t.Helper()
			if math.Float64bits(d) != math.Float64bits(wd) || math.Float64bits(tard) != math.Float64bits(wtard) {
				t.Fatalf("%v %s route %d pos %d cust %d: (%v, %v), SpliceMetrics (%v, %v)", class, what, r, p, c, d, tard, wd, wtard)
			}
			for _, id := range counters {
				if entry.Load(id) != ref.Load(id) {
					t.Fatalf("%v %s route %d pos %d cust %d: counter %d at %d, SpliceMetrics %d", class, what, r, p, c, id, entry.Load(id), ref.Load(id))
				}
			}
		}
		for r, route := range s.Routes {
			k := len(route)
			for p := 0; p <= k; p++ {
				for c := 1; c <= in.N(); c++ {
					e.Telemetry = entry
					d, tard := e.InsertMetrics(in, r, p, c)
					e.Telemetry = ref
					wd, wtard := e.SpliceMetrics(in, Piece(r, 0, p), Single(c), Piece(r, p, k))
					same("insert", r, p, c, d, tard, wd, wtard)
					if p == k {
						continue
					}
					e.Telemetry = entry
					d, tard = e.ReplaceMetrics(in, r, p, c)
					e.Telemetry = ref
					wd, wtard = e.SpliceMetrics(in, Piece(r, 0, p), Single(c), Piece(r, p+1, k))
					same("replace", r, p, c, d, tard, wd, wtard)
				}
				if p == k {
					continue
				}
				e.Telemetry = entry
				d, tard := e.RemoveMetrics(in, r, p)
				e.Telemetry = ref
				wd, wtard := e.SpliceMetrics(in, Piece(r, 0, p), Piece(r, p+1, k))
				same("remove", r, p, 0, d, tard, wd, wtard)
			}
		}
		for _, id := range counters {
			exits[id] += entry.Load(id)
		}
	}
	for _, id := range counters {
		if exits[id] == 0 {
			t.Errorf("counter %d never moved: the splices miss one of SpliceMetrics' paths", id)
		}
	}
}
