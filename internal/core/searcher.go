package core

import (
	"math"
	"runtime"
	"time"

	"repro/internal/construct"
	"repro/internal/deme"
	"repro/internal/metrics"
	"repro/internal/operators"
	"repro/internal/pareto"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/tabu"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// cand is one delta-evaluated candidate: a move tagged with the objectives
// of the solution it would produce, the solution it was proposed on, its
// tabu identity and the iteration it was born in (for the asynchronous
// variant and the trajectory of Figure 1). The full solution is only
// materialized — via materialize — when the candidate is selected as the
// next current solution or enters one of the memories.
type cand struct {
	data operators.MoveData  // KindNone only for pre-materialized candidates
	base *solution.Solution  // the solution the move was proposed on
	obj  solution.Objectives // delta-evaluated objectives of the result
	sol  *solution.Solution  // materialized lazily; nil until needed
	attr tabu.Attribute
	op   operators.MoveKind // the proposing operator (data.Kind, or restored)
	born int
}

// materialize returns the candidate's solution, applying the move on first
// use and caching the result.
func (c *cand) materialize(in *vrptw.Instance) *solution.Solution {
	if c.sol == nil {
		c.sol = c.data.Apply(in, c.base)
	}
	return c.sol
}

// searcher bundles the state of the paper's Algorithm 1: the current
// solution, the three memories (tabu list, M_nondom, M_archive) and the
// restart logic. The sequential algorithm, the master of both master–worker
// variants and each collaborative process all drive one searcher.
type searcher struct {
	in  *vrptw.Instance
	cfg *Config
	gen *operators.Generator
	r   *rng.Rand

	// Per-searcher (possibly perturbed) parameters.
	neighborhood int
	restartIters int

	tl      *tabu.List
	nondom  *pareto.Archive
	archive *pareto.Archive

	cur           *solution.Solution
	iter          int
	evals         int
	sinceImprove  int
	noImprovement bool

	// Cluster sharing (Config.Share; primary searcher only): shareOn
	// gates the egress capture, shareOut accumulates the routes of
	// solutions that entered the archive since the last share epoch, and
	// xshares counts solutions published across the exchange.
	shareOn  bool
	shareOut [][][]int
	xshares  int

	// In-process sharing: the communication list of a collaborating
	// searcher (nil on the sequential and synchronous ones), and the
	// asynchronous master's candidates received but not yet consumed by a
	// step.
	ring    *shareRing
	pending []cand

	rec        *Trajectory
	sampleOn   bool
	samples    []telemetry.ConvergenceSample
	lastSample int

	// yielded is the wall time of the searcher's last yield, zero before
	// its first step.
	yielded time.Time

	// Reusable hot-path storage, all owned by this searcher: the
	// generator's candidate buffer, the assembled candidate set, the
	// incrementally-maintained non-dominated front over it, and the
	// selection scratch lists. Aliasing rule: the slice generate returns
	// is backed by cands and valid only until the next generate call —
	// callers that carry candidates across iterations (the async master)
	// copy them out.
	buf        operators.CandidateBuffer
	cands      []cand
	nd         []int
	allowed    []int
	dominating []int

	// Telemetry (nil when disabled — every recording call below is a
	// single branch then). hvRef is the fixed hypervolume reference point
	// of the convergence samples.
	tel   *telemetry.Telemetry
	hvRef solution.Objectives

	// Tracing (nil when the run carries no recorder). Iterations are far
	// too fine-grained for one span each, so the searcher batches them:
	// traceIter opens a "sweep" span lazily and closeSweep seals it every
	// sweepBatchIters iterations (and at outcome), amortizing the span
	// cost to a fraction of an allocation per iteration.
	tr      *trace.Trace
	phase   *trace.Span // parent of this searcher's phase spans (the run span)
	sweep   *trace.Span // open batched sweep span, nil between batches
	sweepLo int         // first iteration covered by the open sweep span
}

// sweepBatchIters is the number of iterations folded into one "sweep"
// span — small enough to localize a stall, large enough to stay within
// the <=3% enabled-tracing budget (scripts/tsmobench: trace.overhead_pct).
const sweepBatchIters = 128

// yieldEvery is the wall time a searcher runs between two yields of its
// processor (see yield). Every iteration would be too often: Gosched puts
// the searcher on the global run queue and wakes an idle processor, so a
// searcher with a processor to spare hops between processors; at 500 µs
// that still cost a daemon job 9% of its evaluation rate (DESIGN §9).
const yieldEvery = time.Millisecond

// procOutcome is what each algorithm body hands back to Run.
type procOutcome struct {
	front   []*solution.Solution
	evals   int
	iters   int
	shares  int
	samples []telemetry.ConvergenceSample
	err     error // a malformed payload or similar protocol violation
}

// outcome packages the searcher's final state; its shares are the ring's
// plus those published across the cluster exchange.
func (s *searcher) outcome() procOutcome {
	s.closeSweep()
	o := procOutcome{
		front:   s.archive.Snapshot(),
		evals:   s.evals,
		iters:   s.iter,
		shares:  s.xshares,
		samples: s.samples,
	}
	if s.ring != nil {
		o.shares += s.ring.shares
	}
	return o
}

// failOutcome packages the searcher's state with a protocol error that Run
// surfaces to the caller instead of a panic.
func (s *searcher) failOutcome(err error) procOutcome {
	o := s.outcome()
	o.err = err
	return o
}

// evalSpan delta-evaluates a flat move span proposed on cur into objs
// (len(objs) == len(data)) under an "eval_shard" span, charging the
// modeled evaluation cost to p. A worker runs it on every span the
// synchronous master ships; the master runs it on its own span and on the
// spans it recovers from silent workers, bit-identical to the lost reply.
func evalSpan(p deme.Proc, cfg *Config, in *vrptw.Instance, gen *operators.Generator, cur *solution.Solution, data []operators.MoveData, objs []solution.Objectives) {
	if len(data) == 0 {
		return
	}
	sp := cfg.tracer.Start(cfg.span, "eval_shard").
		SetInt("proc", int64(p.ID())).
		SetInt("moves", int64(len(data)))
	gen.EvalDataInto(cur, data, objs)
	cfg.Cost.charge(p, in, objs)
	sp.End()
}

// wrapCands appends one candidate per delta-evaluated move of base, born
// in iteration born, to dst and counts each move as proposed in the
// operator funnel. It is the one place candidates are made: from the
// searcher's own sweep, the synchronous master's reassembled neighborhood
// and an asynchronous worker's chunk.
func wrapCands(dst []cand, tel *telemetry.Telemetry, base *solution.Solution, born int, data []operators.MoveData, objs []solution.Objectives) []cand {
	for i := range data {
		d := data[i]
		dst = append(dst, cand{
			data: d,
			base: base,
			obj:  objs[i],
			attr: d.Attribute(),
			op:   d.Kind,
			born: born,
		})
		tel.IncOp(uint8(d.Kind), d.Kind.String(), telemetry.OpProposed)
	}
	return dst
}

// countEvals books n evaluated neighbors. An empty neighborhood — a
// degenerate instance with no feasible move — still charges one
// evaluation, so the budget runs out.
func (s *searcher) countEvals(n int) {
	s.evals += n
	s.tel.Add(telemetry.Evaluations, n)
	if n == 0 {
		s.evals++
	}
}

// maybeSample records a convergence sample when due: archive and memory
// sizes, the best feasible distance and vehicle count, and the feasible
// archive's hypervolume (against the reference fixed at init) and Schott's
// spacing, so convergence is observable while the run is still going.
func (s *searcher) maybeSample(p deme.Proc) {
	if !s.sampleOn || s.cfg.SampleEvery <= 0 || s.evals-s.lastSample < s.cfg.SampleEvery {
		return
	}
	s.lastSample = s.evals
	objs := metrics.FeasibleObjs(s.archive.Items())
	sm := telemetry.ConvergenceSample{
		Evals: s.evals, Iteration: s.iter, Time: p.Now(),
		ArchiveSize: s.archive.Len(), NondomSize: s.nondom.Len(),
		BestDistance: math.Inf(1), BestVehicles: math.Inf(1),
		Hypervolume: metrics.Hypervolume(objs, s.hvRef), Spacing: metrics.Spacing(objs),
	}
	for _, o := range objs {
		sm.BestDistance = min(sm.BestDistance, o.Distance)
		sm.BestVehicles = min(sm.BestVehicles, o.Vehicles)
	}
	s.samples = append(s.samples, sm)
	if s.tel.Sinks() {
		s.tel.Event(telemetry.SnapshotEvent{Proc: p.ID(), HVRef: telemetry.Objectives(s.hvRef), Sample: sm})
	}
}

// newSearcher builds a searcher with the given (possibly perturbed)
// parameters; tenure, neighborhood and restartIters override the config
// when positive.
func newSearcher(in *vrptw.Instance, cfg *Config, r *rng.Rand, neighborhood, tenure, restartIters int) *searcher {
	if neighborhood <= 0 {
		neighborhood = cfg.NeighborhoodSize
	}
	if tenure <= 0 {
		tenure = cfg.TabuTenure
	}
	if restartIters <= 0 {
		restartIters = cfg.RestartIterations
	}
	s := &searcher{
		in:           in,
		cfg:          cfg,
		gen:          newGenerator(in, cfg),
		r:            r,
		neighborhood: neighborhood,
		restartIters: restartIters,
		tl:           tabu.NewList(tenure),
		nondom:       pareto.NewArchive(cfg.NondomSize),
		archive:      pareto.NewArchive(cfg.ArchiveSize),
		tel:          cfg.Telemetry,
		tr:           cfg.tracer,
		phase:        cfg.span,
	}
	s.gen.EvalWorkers = cfg.EvalWorkers
	s.archive.SetStats(cfg.Telemetry, telemetry.ArchiveAccepts)
	s.nondom.SetStats(cfg.Telemetry, telemetry.NondomAccepts)
	return s
}

// newGenerator builds a process's move generator: the run's operators and
// telemetry, and the granular neighbor lists when GranularK is set.
func newGenerator(in *vrptw.Instance, cfg *Config) *operators.Generator {
	gen := operators.NewGenerator(in, cfg.Operators)
	gen.Telemetry = cfg.Telemetry
	if cfg.GranularK > 0 {
		gen.Granular = in.NeighborLists(cfg.GranularK)
	}
	return gen
}

// startSearcher builds process p's searcher and brings it to its first
// iteration: restored from the process's checkpoint part on a resume,
// constructed by init otherwise. Collaborative processes other than 0
// disturb their parameters first (§III.E); a resume restores the disturbed
// values instead, since re-perturbing would consume RNG draws the restored
// stream already spent. ring, when non-nil, is the communication list of a
// collaborating searcher; a fresh one is shuffled after construction. All
// three draw from r, in that order, and the stream order is observable
// (bit-identity with pre-checkpointing runs). Process 0 samples the
// convergence curve and bridges to the cluster exchange.
func startSearcher(p deme.Proc, in *vrptw.Instance, cfg *Config, r *rng.Rand, rec *Trajectory, ring *shareRing) *searcher {
	rp := cfg.resumePart(p.ID())
	var nbh, tenure, restart int // 0: the configured values
	if cfg.alg == Collaborative && p.ID() > 0 {
		if rp != nil {
			nbh, tenure, restart = rp.Neighborhood, rp.Tenure, rp.RestartIters
		} else {
			nbh, tenure, restart = perturb(r, cfg.NeighborhoodSize), perturb(r, cfg.TabuTenure), perturb(r, cfg.RestartIterations)
		}
	}
	s := newSearcher(in, cfg, r, nbh, tenure, restart)
	s.rec = rec
	s.sampleOn = p.ID() == 0
	s.shareOn = cfg.Share != nil && p.ID() == 0
	s.ring = ring
	if rp != nil {
		s.restoreFrom(rp)
		return s
	}
	s.init(p)
	if ring != nil {
		ring.initial = true
		r.Shuffle(len(ring.peers), func(i, j int) { ring.peers[i], ring.peers[j] = ring.peers[j], ring.peers[i] })
	}
	return s
}

// init generates the initial solution with the randomized I1 heuristic,
// charges its modeled cost, and seeds the memories.
func (s *searcher) init(p deme.Proc) {
	sp := s.tr.Start(s.phase, "construct").SetInt("proc", int64(p.ID()))
	defer sp.End()
	s.cur = construct.I1(s.in, construct.RandomParams(s.r))
	p.Compute(s.cfg.Cost.ConstructPerCustomer * float64(s.in.N()))
	s.evals++
	s.tel.Inc(telemetry.Evaluations)
	s.archive.Add(s.cur)
	if s.rec != nil {
		s.rec.add(0, 0, s.cur.Obj, true)
	}
	s.hvRef = metrics.HVReference(s.cur.Obj)
	if s.tel.Sinks() {
		s.tel.Event(telemetry.InitEvent{Proc: p.ID(), Obj: telemetry.Objectives(s.cur.Obj)})
	}
}

// generate draws and delta-evaluates up to n neighbors of the current
// solution, charging their modeled cost to p. The candidates carry
// objectives only; no neighbor solution is materialized here. The returned
// slice is backed by the searcher's reusable storage and is valid only
// until the next generate call.
func (s *searcher) generate(p deme.Proc, n int) []cand {
	s.gen.CandidatesInto(&s.buf, s.cur, s.r, n)
	s.cands = wrapCands(s.cands[:0], s.tel, s.cur, s.iter, s.buf.Data, s.buf.Objs)
	s.cfg.Cost.charge(p, s.in, s.buf.Objs)
	s.countEvals(len(s.cands))
	return s.cands
}

// step performs the selection and memory-update part of one Algorithm 1
// iteration on an already-evaluated candidate set (which, for the
// asynchronous variant, may mix several birth iterations). It returns
// whether the archive improved this iteration.
func (s *searcher) step(p deme.Proc, cands []cand) bool {
	p.Compute(s.cfg.Cost.OverheadPerNeighbor * float64(len(cands)))

	// The candidate set's non-dominated indices feed both the selection
	// and the M_nondom update.
	nd := s.foldFront(cands)
	sel := s.selectCand(cands, nd)
	if s.rec != nil {
		for i := range cands {
			s.rec.add(s.iter+1, cands[i].born, cands[i].obj, false)
		}
	}
	selectedOp := operators.KindNone
	if sel < 0 || s.noImprovement {
		// Restart from the memories: M_nondom entries are consumed,
		// archive entries survive.
		noCandidate := sel < 0
		consumed := s.restart()
		if noCandidate {
			s.tel.Inc(telemetry.RestartsNoCandidate)
		} else {
			s.tel.Inc(telemetry.RestartsStagnation)
		}
		s.tel.Add(telemetry.NondomConsumed, consumed)
		if s.tel.Sinks() {
			s.tel.Event(telemetry.RestartEvent{Proc: p.ID(), Iteration: s.iter, NoCandidate: noCandidate,
				NondomConsumed: consumed, NondomSize: s.nondom.Len(), ArchiveSize: s.archive.Len()})
		}
		s.noImprovement = false
	} else {
		s.cur = cands[sel].materialize(s.in)
		s.tl.Add(cands[sel].attr)
		selectedOp = cands[sel].op
		s.tel.IncOp(uint8(selectedOp), selectedOp.String(), telemetry.OpSelected)
	}
	if s.rec != nil {
		s.rec.add(s.iter+1, s.iter, s.cur.Obj, true)
	}

	// Update memories: non-dominated neighbors enter M_nondom, the
	// chosen current solution is offered to the archive. Candidates the
	// memory would reject anyway are never materialized.
	improved := false
	for _, i := range nd {
		if s.nondom.WouldAccept(cands[i].obj) {
			s.nondom.Add(cands[i].materialize(s.in))
		}
	}
	if s.archive.Add(s.cur) {
		improved = true
		s.tel.IncOp(uint8(selectedOp), selectedOp.String(), telemetry.OpAccepted)
		if s.shareOn {
			// Egress capture for the cluster exchange: route slices are
			// immutable once attached, so sharing them is safe.
			s.shareOut = append(s.shareOut, s.cur.Routes)
		}
		// Stream the accepted point: the solver service forwards these
		// to its subscribers as the evolving Pareto front.
		if s.tel.Sinks() {
			op := "" // after a restart
			if selectedOp != operators.KindNone {
				op = selectedOp.String()
			}
			s.tel.Event(telemetry.AcceptEvent{Proc: p.ID(), Iteration: s.iter, Time: p.Now(),
				Obj: telemetry.Objectives(s.cur.Obj), Feasible: s.cur.Obj.Feasible(),
				Operator: op, ArchiveSize: s.archive.Len()})
		}
	}
	if improved {
		s.sinceImprove = 0
	} else {
		s.sinceImprove++
		if s.sinceImprove >= s.restartIters {
			s.noImprovement = true
			s.sinceImprove = 0
		}
	}
	s.iter++
	s.tel.Inc(telemetry.Iterations)
	s.traceIter(p)
	s.maybeSample(p)
	s.yield()
	return improved
}

// yield lets goroutines queued behind the searcher — the service's SSE
// writers and HTTP handlers, share followers — run once yieldEvery of
// wall time has passed since its last yield, so they wait about a
// millisecond, not until Go preempts the searcher (10 ms): a searcher
// never blocks on the goroutine backend, and on the simulator each
// handoff with the scheduler goroutine passes the time slice on. Wall
// time, because p.Now() is virtual on the simulator. The first step
// always yields; it emits a job's first archive_accept.
func (s *searcher) yield() {
	if now := time.Now(); now.Sub(s.yielded) >= yieldEvery {
		s.yielded = now
		runtime.Gosched()
	}
}

// traceIter maintains the batched "sweep" span: opened lazily on the
// first traced iteration, sealed every sweepBatchIters iterations. One
// branch when tracing is disabled.
func (s *searcher) traceIter(p deme.Proc) {
	if s.tr == nil {
		return
	}
	if s.sweep == nil {
		s.sweepLo = s.iter - 1
		s.sweep = s.tr.Start(s.phase, "sweep").SetInt("proc", int64(p.ID()))
	}
	if s.iter-s.sweepLo >= sweepBatchIters {
		s.closeSweep()
	}
}

// closeSweep seals the open sweep span (if any) with its iteration range
// and the evaluation count reached.
func (s *searcher) closeSweep() {
	if s.sweep == nil {
		return
	}
	s.sweep.SetInt("iter_lo", int64(s.sweepLo)).
		SetInt("iter_hi", int64(s.iter)).
		SetInt("evals", int64(s.evals))
	s.sweep.End()
	s.sweep = nil
}

// foldFront returns the indices of the candidates non-dominated within the
// set, folding them one at a time into the reusable buffer s.nd: a
// candidate that some front member dominates leaves the front unchanged;
// otherwise the members it dominates are compacted out and it is appended.
// Because front members are mutually non-dominated, no removal can precede
// finding a dominator (dominance is transitive), so the early exit is safe
// — and the result equals pareto.NondominatedIndices over the whole set,
// duplicates kept, indices ascending. That is one pass against the running
// front instead of the full O(n²) pairwise scan, with zero allocations in
// steady state.
func (s *searcher) foldFront(cands []cand) []int {
	s.nd = s.nd[:0]
next:
	for i := range cands {
		obj := cands[i].obj
		w := 0
		for _, j := range s.nd {
			if cands[j].obj.Dominates(obj) {
				continue next // dominated; nothing before j can have been removed
			}
			if !obj.Dominates(cands[j].obj) {
				s.nd[w] = j
				w++
			}
		}
		s.nd = append(s.nd[:w], i)
	}
	return s.nd
}

// selectCand picks the next current solution from the candidate set: among
// the candidates non-dominated within the set (nd, as computed by
// foldFront) and not forbidden by the tabu list (with archive-entry
// aspiration), it prefers one that dominates the current solution and
// otherwise draws uniformly. It returns -1 when every candidate is
// unavailable — the paper's "s not in N" restart trigger.
func (s *searcher) selectCand(cands []cand, nd []int) int {
	if len(cands) == 0 {
		return -1
	}
	allowed := s.allowed[:0]
	for _, i := range nd {
		aspires := !s.cfg.DisableAspiration && s.archive.WouldAccept(cands[i].obj)
		if !s.tl.Contains(cands[i].attr) {
			allowed = append(allowed, i)
		} else if aspires {
			s.tel.Inc(telemetry.AspirationFires)
			allowed = append(allowed, i)
		} else {
			s.tel.Inc(telemetry.TabuRejected)
		}
	}
	s.allowed = allowed[:0]
	if len(allowed) == 0 {
		return -1
	}
	dominating := s.dominating[:0]
	for _, i := range allowed {
		if cands[i].obj.Dominates(s.cur.Obj) {
			dominating = append(dominating, i)
		}
	}
	s.dominating = dominating[:0]
	if len(dominating) > 0 {
		return dominating[s.r.Intn(len(dominating))]
	}
	return allowed[s.r.Intn(len(allowed))]
}

// done reports whether a budget is exhausted: the evaluation budget, a
// cancelled run context, or — when configured — the runtime budget for
// equal-time comparisons.
func (s *searcher) done(p deme.Proc) bool {
	if s.evals >= s.cfg.MaxEvaluations {
		return true
	}
	if s.cfg.cancelled() {
		return true
	}
	return s.cfg.MaxSeconds > 0 && p.Now() >= s.cfg.MaxSeconds
}

// restart replaces the current solution with one drawn from
// M_nondom ∪ M_archive, consuming M_nondom entries (the paper's ↓↑). It
// returns how many M_nondom entries it consumed (0 or 1); archive entries
// always survive.
func (s *searcher) restart() int {
	total := s.nondom.Len() + s.archive.Len()
	if total == 0 {
		return 0 // keep the current solution; nothing to restart from
	}
	k := s.r.Intn(total)
	if k < s.nondom.Len() {
		s.cur = s.nondom.TakeRandom(s.r)
		return 1
	}
	s.cur = s.archive.Random(s.r)
	return 0
}

// mergeFronts collapses per-process archive snapshots into one
// non-dominated front.
func mergeFronts(fronts [][]*solution.Solution) []*solution.Solution {
	var all []*solution.Solution
	for _, f := range fronts {
		all = append(all, f...)
	}
	objs := make([]solution.Objectives, len(all))
	for i, s := range all {
		objs[i] = s.Obj
	}
	idx := pareto.NondominatedIndices(objs)
	// Drop exact objective duplicates to keep the front tidy.
	seen := make(map[[3]float64]bool, len(idx))
	var out []*solution.Solution
	for _, i := range idx {
		key := all[i].Obj.Values()
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, all[i])
	}
	return out
}

// perturb applies the collaborative variant's parameter disturbance: a
// normal deviate with standard deviation param/4, rounded, clamped to >= 1
// (§III.E: "disturbed by a random variable derived from a normal
// distribution with mean 0 and a standard deviation that is the quarter of
// the parameter").
func perturb(r *rng.Rand, param int) int {
	v := param + int(r.NormFloat64()*float64(param)/4+0.5)
	if v < 1 {
		v = 1
	}
	return v
}
