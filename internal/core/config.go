package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/deme"
	"repro/internal/operators"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// Algorithm selects one of the paper's TSMO variants (plus the combined
// variant sketched in its future-work section).
type Algorithm int

// The TSMO variants.
const (
	// Sequential is Algorithm 1 of the paper on a single process.
	Sequential Algorithm = iota
	// Synchronous is the master–worker parallelization of neighborhood
	// generation and evaluation where the master waits for all workers
	// each iteration (§III.C). Behavior is identical to Sequential.
	Synchronous
	// Asynchronous is the master–worker variant whose master continues
	// with partial neighborhoods as soon as the decision function fires
	// (§III.D, Algorithm 2).
	Asynchronous
	// Collaborative is the multisearch variant: independent searchers
	// with perturbed parameters exchanging improving solutions through a
	// rotating communication list (§III.E).
	Collaborative
	// Combined is the future-work combination (§V): islands of
	// asynchronous master–worker searches whose masters collaborate.
	Combined
)

var algorithmNames = [...]string{"sequential", "synchronous", "asynchronous", "collaborative", "combined"}

// String returns the lower-case variant name.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algorithmNames) {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algorithmNames[a]
}

// ParseAlgorithm converts a variant name to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) {
	for i, n := range algorithmNames {
		if s == n {
			return Algorithm(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", s)
}

// CostModel holds the virtual CPU costs (in modeled seconds on the
// simulated machine) of the search's primitive operations. It is
// calibrated so that a sequential run of the paper's standard
// configuration on a 400-city instance takes roughly the paper's ~2,200
// virtual seconds (R12000 @ 400 MHz; see EXPERIMENTS.md). On the
// goroutine backend these costs are ignored.
type CostModel struct {
	// EvalBase is the fixed cost per candidate solution (move proposal,
	// bookkeeping).
	EvalBase float64
	// EvalPerCustomer scales with instance size: the paper's
	// implementation re-evaluated complete solutions.
	EvalPerCustomer float64
	// EvalPerRouteCustomer adds route-length sensitivity (touched-route
	// re-scheduling): charged per customer on two average routes.
	EvalPerRouteCustomer float64
	// OverheadPerNeighbor is the master/searcher-side per-candidate cost
	// of selection and memory updates.
	OverheadPerNeighbor float64
	// ConstructPerCustomer is the per-customer cost of the I1
	// construction heuristic.
	ConstructPerCustomer float64
}

// DefaultCostModel returns the calibrated model.
func DefaultCostModel() CostModel {
	return CostModel{
		EvalBase:             0.5e-3,
		EvalPerCustomer:      22e-6,
		EvalPerRouteCustomer: 38e-6,
		OverheadPerNeighbor:  1.0e-3,
		ConstructPerCustomer: 2.5e-3,
	}
}

// check refuses a negative or non-finite cost, naming its field: the
// simulated clock charges the costs, and the coordination timeouts, which
// every deme receive needs finite, derive from them.
func (c *CostModel) check() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"EvalBase", c.EvalBase},
		{"EvalPerCustomer", c.EvalPerCustomer},
		{"EvalPerRouteCustomer", c.EvalPerRouteCustomer},
		{"OverheadPerNeighbor", c.OverheadPerNeighbor},
		{"ConstructPerCustomer", c.ConstructPerCustomer},
	} {
		if !(f.v >= 0 && f.v <= math.MaxFloat64) {
			return fmt.Errorf("core: Cost.%s must be finite and >= 0, got %v", f.name, f.v)
		}
	}
	return nil
}

// evalCost returns the modeled cost of producing and evaluating one
// candidate deploying the given number of routes. The model charges the
// paper's full-materialization price regardless of how the candidate was
// actually evaluated, keeping Sim-backend timings reproducible across the
// delta-evaluation refactor.
func (c *CostModel) evalCost(in *vrptw.Instance, routes int) float64 {
	meanRoute := float64(in.N())
	if routes > 0 {
		meanRoute /= float64(routes)
	}
	return c.EvalBase + c.EvalPerCustomer*float64(in.N()) + c.EvalPerRouteCustomer*2*meanRoute
}

// charge charges p the modeled cost of evaluating the candidates with the
// given objectives. A candidate's cost depends on its vehicle count
// alone, so it is recomputed only when the count changes from one
// candidate to the next: the same values are added in the same order.
func (c *CostModel) charge(p deme.Proc, in *vrptw.Instance, objs []solution.Objectives) {
	var cost, each float64
	vehicles := -1
	for i := range objs {
		if v := int(objs[i].Vehicles); v != vehicles {
			vehicles, each = v, c.evalCost(in, v)
		}
		cost += each
	}
	p.Compute(cost)
}

// Config parameterizes a TSMO run. The zero value is not directly usable;
// start from DefaultConfig (the paper's experimental setup) and override.
type Config struct {
	// MaxEvaluations is the budget of objective-function evaluations
	// (paper: 100,000). For the parallel variants the budget counts
	// evaluations observed by each master/searcher.
	MaxEvaluations int
	// MaxSeconds optionally adds a runtime budget (virtual seconds on
	// the simulator, wall seconds on the goroutine backend): the search
	// stops at whichever budget is hit first. This enables the
	// equal-time comparison the paper suggests in §IV ("Given an equal
	// amount of time, it would be possible for the asynchronous Tabu
	// Search to do more evaluations"). 0 disables it.
	MaxSeconds float64
	// NeighborhoodSize is the number of moves drawn per iteration
	// (paper: 200).
	NeighborhoodSize int
	// TabuTenure is the length of the tabu list (paper: 20).
	TabuTenure int
	// ArchiveSize bounds M_archive (paper: 20).
	ArchiveSize int
	// NondomSize bounds the medium-term memory M_nondom. The paper does
	// not state a bound; 50 keeps the restart pool diverse without
	// unbounded growth.
	NondomSize int
	// RestartIterations: after this many iterations without any archive
	// improvement the search restarts from the memories (paper: 100).
	RestartIterations int
	// Processors is the process count P for the parallel variants
	// (paper: 3, 6, 12). Sequential forces 1.
	Processors int
	// Islands is the number of collaborating islands of the Combined
	// variant; 0 picks round(sqrt(P)).
	Islands int
	// Seed makes runs reproducible (together with a deterministic
	// runtime backend).
	Seed uint64
	// WaitTimeout is the asynchronous master's "waiting too long"
	// threshold (decision-function condition c3) in runtime seconds,
	// finite. 0 picks 1.5× the expected worker chunk time.
	WaitTimeout float64
	// RecvTimeout is the failure-suspicion threshold of the self-healing
	// layer, in finite runtime seconds: how long a master waits on a worker
	// result (and a worker on its next work chunk) before suspecting the
	// peer is gone and re-dispatching / re-checking. 0 picks 30× the
	// expected worker chunk time — far above the machine model's worst
	// transient stall, so fault-free runs never trip it.
	RecvTimeout float64
	// EvictAfter is the number of consecutive RecvTimeout strikes after
	// which a silent-but-alive worker is evicted from its master's worker
	// set (crashed workers are evicted immediately). 0 picks 2.
	EvictAfter int
	// Cost is the virtual cost model for the simulated backend.
	Cost CostModel
	// RecordTrajectory enables the per-candidate trajectory recording
	// used to regenerate the paper's Figure 1. Only the master (or
	// searcher 0) records.
	RecordTrajectory bool
	// ShareBroadcast is an ablation switch for the collaborative
	// variants: send improving solutions to every peer instead of the
	// paper's rotating single-recipient communication list (§III.E keeps
	// the list "to keep the communication overhead small and to prevent
	// all processes from searching the same region").
	ShareBroadcast bool
	// DisableAspiration is an ablation switch: when set, tabu candidates
	// are never admitted, even if they would enter the archive.
	DisableAspiration bool
	// Operators overrides the neighborhood operator set. nil uses the
	// paper's five (operators.All); operators.Extended adds the
	// classic VRPTW moves beyond the paper. All processes share the set.
	Operators []operators.MoveKind
	// SampleEvery, when positive, records a convergence sample on the
	// master (or searcher 0) after every SampleEvery evaluations; see
	// Result.Samples.
	SampleEvery int
	// GranularK, when positive, enables granular neighborhoods: move
	// proposals draw only arcs from each site's GranularK-nearest
	// admissible neighbor list (travel distance plus unavoidable waiting
	// time; time-window-infeasible arcs excluded — see
	// vrptw.NeighborLists), falling back to the full proposal path when
	// a granular draw budget is exhausted. 0 — the default — keeps the
	// paper's full neighborhoods. Granularity shapes the search
	// trajectory, so it is part of the checkpoint fingerprint.
	GranularK int
	// CheckpointEvery, when positive, enables durable checkpointing: at
	// every CheckpointEvery-th master iteration the run executes a
	// checkpoint barrier, captures the complete search state of every
	// process, and hands the assembled Checkpoint to CheckpointSink.
	// Checkpointing is a run mode: the barrier messages consume virtual
	// time, so a checkpointed run's trajectory differs (deterministically)
	// from an uncheckpointed one — and a run resumed from any of its
	// checkpoints is bit-identical to the same run left uninterrupted.
	// Incompatible with Combined, RecordTrajectory and MaxSeconds.
	CheckpointEvery int
	// CheckpointSink receives every assembled checkpoint. It is called
	// from the master/searcher-0 process; on the goroutine backend that
	// is a live goroutine, so sinks must be fast or hand off. A sink
	// error is counted in telemetry and the run continues.
	CheckpointSink func(*Checkpoint) error
	// Share, when non-nil, connects this run to sibling runs (cluster
	// shards of one job on other daemons): every ShareEvery master
	// iterations the primary searcher publishes its archive-entering
	// solutions and folds in the same-epoch batches of every sibling —
	// an epoch-synchronized extension of the collaborative ring across
	// machines. Incompatible with Combined. See share.go.
	Share ShareExchange
	// ShareEvery is the share-epoch length in master iterations; 0 with
	// Share set picks 50. It shapes the trajectory, so it is part of the
	// checkpoint fingerprint (sibling shards must agree on it).
	ShareEvery int
	// Dynamic, when non-nil, turns the run into a re-optimization session:
	// after every completed checkpoint barrier the source is polled, and
	// when it requests a halt the run pauses at that barrier, the
	// assembled checkpoint is handed to the source's Apply — which splices
	// the pending instance mutations and repairs every part — and the run
	// warm-restarts from the patched checkpoint. Mutation epochs are
	// checkpoint barriers, so Dynamic requires CheckpointEvery > 0 and
	// inherits its restrictions (no Combined, RecordTrajectory or
	// MaxSeconds). Like Telemetry, the source itself is excluded from the
	// checkpoint fingerprint: the mutations it applies re-fingerprint the
	// instance instead.
	Dynamic MutationSource
	// Telemetry, when non-nil, enables the observability layer: atomic
	// search/operator/delta counters, async decision-function tracing,
	// worker idle accounting, and (when the layer carries sinks) the
	// structured event stream and JSONL run report. nil — the default —
	// disables all of it at a cost of one branch per instrumentation
	// point; see internal/telemetry and scripts/tsmobench's
	// telemetry.overhead_pct.
	Telemetry *telemetry.Telemetry

	// ctx carries the run's cancellation signal; set by RunContext, nil
	// only where a test drives a searcher directly. Every searcher and
	// worker loop polls it at its loop head, so cancellation stops a run
	// within one iteration and the partial result is still returned.
	ctx context.Context

	// Tracing internals, set by RunContext from the span recorder carried
	// in its context (trace.FromContext): the trace and the "run" span all
	// per-variant phase spans parent to. Both nil when the context carries
	// no recorder — the disabled layer, one branch per instrumentation
	// site. Excluded from the checkpoint fingerprint, like Telemetry:
	// tracing observes the trajectory, it never shapes it.
	tracer *trace.Trace
	span   *trace.Span

	// Checkpointing internals, set by RunContext: the algorithm of the
	// run (for checkpoint assembly), the instance/config fingerprints,
	// the per-run part collector, and — on a resumed run — the
	// checkpoint to restore from.
	alg        Algorithm
	instDigest string
	cfgDigest  string
	coll       *ckptCollector
	resume     *Checkpoint

	// haltB is the barrier the current segment halted at for a mutation
	// (0: none). Written by the coordinating process right before its body
	// returns, read by RunContext after the segment joins.
	haltB int
}

// cancelled reports whether the run's context (if any) is done.
func (c *Config) cancelled() bool {
	return c.ctx != nil && c.ctx.Err() != nil
}

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig() Config {
	return Config{
		MaxEvaluations:    100000,
		NeighborhoodSize:  200,
		TabuTenure:        20,
		ArchiveSize:       20,
		NondomSize:        50,
		RestartIterations: 100,
		Processors:        1,
		Cost:              DefaultCostModel(),
	}
}

// validate fills derived defaults and rejects unusable configurations.
func (c *Config) validate(in *vrptw.Instance, alg Algorithm) error {
	if c.MaxEvaluations < 1 {
		return fmt.Errorf("core: MaxEvaluations must be >= 1, got %d", c.MaxEvaluations)
	}
	if c.NeighborhoodSize < 1 {
		return fmt.Errorf("core: NeighborhoodSize must be >= 1, got %d", c.NeighborhoodSize)
	}
	if c.TabuTenure < 1 {
		return fmt.Errorf("core: TabuTenure must be >= 1, got %d", c.TabuTenure)
	}
	if c.ArchiveSize < 1 || c.NondomSize < 1 {
		return fmt.Errorf("core: archive sizes must be >= 1")
	}
	if c.RestartIterations < 1 {
		return fmt.Errorf("core: RestartIterations must be >= 1, got %d", c.RestartIterations)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("core: CheckpointEvery must be >= 0, got %d", c.CheckpointEvery)
	}
	if c.GranularK < 0 {
		return fmt.Errorf("core: GranularK must be >= 0, got %d", c.GranularK)
	}
	if c.ShareEvery < 0 {
		return fmt.Errorf("core: ShareEvery must be >= 0, got %d", c.ShareEvery)
	}
	if c.Operators != nil && len(c.Operators) == 0 {
		return fmt.Errorf("core: Operators is empty; nil selects the paper's five")
	}
	for _, k := range c.Operators {
		if k == operators.KindNone || k > operators.KindCrossExchange {
			return fmt.Errorf("core: Operators holds unknown operator kind %d", k)
		}
	}
	if c.Share != nil {
		if alg == Combined {
			return fmt.Errorf("core: cluster sharing does not support the combined variant")
		}
		if c.ShareEvery == 0 {
			c.ShareEvery = 50
		}
	} else {
		// Without an exchange the epoch length is inert; zero it so it
		// cannot perturb the config digest of a non-cluster run.
		c.ShareEvery = 0
	}
	if c.Dynamic != nil && c.CheckpointEvery <= 0 {
		return fmt.Errorf("core: a Dynamic mutation source requires CheckpointEvery > 0 (mutation epochs are checkpoint barriers)")
	}
	if c.Dynamic != nil && c.Share != nil {
		// The cluster exchange's publish history holds old-instance routes
		// and peers have no mutation coordination; combining them would
		// splice foreign solutions of a different instance into the run.
		return fmt.Errorf("core: a Dynamic mutation source cannot be combined with cluster sharing")
	}
	if c.CheckpointEvery > 0 {
		if alg == Combined {
			return fmt.Errorf("core: checkpointing does not support the combined variant")
		}
		if c.RecordTrajectory {
			return fmt.Errorf("core: checkpointing is incompatible with RecordTrajectory")
		}
		if c.MaxSeconds > 0 {
			return fmt.Errorf("core: checkpointing is incompatible with MaxSeconds (an absolute time budget cannot survive a resume)")
		}
	}
	switch alg {
	case Sequential:
		c.Processors = 1
	case Synchronous, Asynchronous, Collaborative:
		if c.Processors < 2 {
			return fmt.Errorf("core: %v needs at least 2 processors, got %d", alg, c.Processors)
		}
	case Combined:
		if c.Islands == 0 {
			c.Islands = int(math.Round(math.Sqrt(float64(c.Processors))))
		}
		if c.Islands < 2 || c.Processors/c.Islands < 2 {
			return fmt.Errorf("core: combined needs >= 2 islands of >= 2 processors (P=%d, islands=%d)",
				c.Processors, c.Islands)
		}
	default:
		return fmt.Errorf("core: unknown algorithm %d", int(alg))
	}
	if err := c.Cost.check(); err != nil {
		return err
	}
	chunk := c.NeighborhoodSize / c.Processors
	if chunk < 1 {
		chunk = 1
	}
	// Expected per-candidate cost including the route-length term
	// (typical routes carry ~10 customers) and the machine's mean
	// stall inflation (~1.7 on the Origin 3800 model).
	per := 1.7 * (c.Cost.EvalBase + c.Cost.EvalPerCustomer*float64(in.N()) +
		c.Cost.EvalPerRouteCustomer*20)
	if c.WaitTimeout == 0 {
		c.WaitTimeout = 1.5 * float64(chunk) * per
	}
	if c.RecvTimeout == 0 {
		c.RecvTimeout = 30 * float64(chunk) * per
	}
	if c.EvictAfter == 0 {
		c.EvictAfter = 2
	}
	// Checked as derived, so costs too large for the derivation are
	// refused as well.
	return checkCoordination(c.WaitTimeout, c.RecvTimeout, c.EvictAfter)
}

// checkCoordination rejects a negative, infinite or NaN WaitTimeout or
// RecvTimeout and a negative EvictAfter — zero asks for the derived
// default. Any of them keeps a master, a worker or a barrier waiting
// forever, so a run never returns; every deme receive needs a finite
// timeout.
func checkCoordination(wait, recv float64, evictAfter int) error {
	if !(wait >= 0 && wait <= math.MaxFloat64) || !(recv >= 0 && recv <= math.MaxFloat64) || evictAfter < 0 {
		return fmt.Errorf("core: WaitTimeout and RecvTimeout must be finite and >= 0 and EvictAfter >= 0, got %v, %v and %d", wait, recv, evictAfter)
	}
	return nil
}

// solBytes estimates the wire size of one solution for the simulated
// machine's bandwidth accounting: the permutation string plus framing.
func solBytes(in *vrptw.Instance) int {
	return 8 * (in.N() + in.Vehicles + 4)
}

// Result is the outcome of a TSMO run.
type Result struct {
	// Front is the merged non-dominated front over all processes'
	// archives at termination. It may contain infeasible (tardy)
	// solutions; use FeasibleFront for the paper's reporting convention.
	Front []*solution.Solution
	// Evaluations actually performed (summed over processes for the
	// multisearch variants).
	Evaluations int
	// Iterations of the master / of each searcher summed.
	Iterations int
	// Elapsed is the runtime reported by the backend: virtual seconds on
	// the simulator (the paper's runtime column), wall seconds on the
	// goroutine backend.
	Elapsed float64
	// Shares counts the solutions exchanged between searchers (the
	// collaborative variants; 0 otherwise).
	Shares int
	// Algorithm and Processors echo the run setup.
	Algorithm  Algorithm
	Processors int
	// Trajectory is non-nil when Config.RecordTrajectory was set.
	Trajectory *Trajectory
	// Samples holds the master's convergence curve when
	// Config.SampleEvery was set.
	Samples []telemetry.ConvergenceSample
}

// FeasibleFront returns the solutions of Front without time-window
// violations — the paper excludes violating solutions from all reported
// results.
func (r *Result) FeasibleFront() []*solution.Solution {
	var out []*solution.Solution
	for _, s := range r.Front {
		if s.Obj.Feasible() {
			out = append(out, s)
		}
	}
	return out
}

// BestDistance returns the smallest total distance on the feasible front,
// or +Inf when the front has no feasible solution.
func (r *Result) BestDistance() float64 {
	best := math.Inf(1)
	for _, s := range r.FeasibleFront() {
		if s.Obj.Distance < best {
			best = s.Obj.Distance
		}
	}
	return best
}

// MinVehicles returns the smallest vehicle count on the feasible front, or
// +Inf when the front has no feasible solution.
func (r *Result) MinVehicles() float64 {
	best := math.Inf(1)
	for _, s := range r.FeasibleFront() {
		if s.Obj.Vehicles < best {
			best = s.Obj.Vehicles
		}
	}
	return best
}
