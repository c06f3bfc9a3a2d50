// Package repro is the public API of this reproduction of Beham,
// "Parallel Tabu Search and the Multiobjective Vehicle Routing Problem
// with Time Windows" (IPPS 2007).
//
// It re-exports the problem model (CVRPTW instances, solutions with the
// three objectives distance / vehicles / tardiness), the TSMO algorithm
// family (sequential, synchronous and asynchronous master–worker,
// collaborative multisearch, and the combined future-work variant), and
// the two execution backends: a deterministic discrete-event simulation of
// the paper's SGI Origin 3800 testbed, and real goroutines for actual
// multicore hosts.
//
// Quickstart:
//
//	in, _ := repro.Generate(repro.GenConfig{Class: repro.R1, N: 100, Seed: 1})
//	cfg := repro.DefaultConfig()
//	cfg.MaxEvaluations = 20000
//	cfg.Processors = 6
//	res, _ := repro.Solve(repro.Asynchronous, in, cfg)
//	for _, s := range res.FeasibleFront() {
//		fmt.Printf("%.1f km with %.0f vehicles\n", s.Obj.Distance, s.Obj.Vehicles)
//	}
package repro

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/metrics"
	"repro/internal/moea"
	"repro/internal/mots"
	"repro/internal/service"
	"repro/internal/solution"
	"repro/internal/vrptw"
	"repro/internal/wsum"
)

// Problem-model types.
type (
	// Instance is an immutable CVRPTW problem description.
	Instance = vrptw.Instance
	// Site is the depot or one customer of an instance.
	Site = vrptw.Site
	// GenConfig parameterizes the extended-Solomon instance generator.
	GenConfig = vrptw.GenConfig
	// Class is an instance family (R1, C1, RC1, R2, C2, RC2).
	Class = vrptw.Class
	// Solution is a set of vehicle routes with cached objectives.
	Solution = solution.Solution
	// Objectives holds the three minimization objectives.
	Objectives = solution.Objectives
)

// Instance classes, as in the Solomon/Homberger benchmark sets.
const (
	R1  = vrptw.R1
	C1  = vrptw.C1
	RC1 = vrptw.RC1
	R2  = vrptw.R2
	C2  = vrptw.C2
	RC2 = vrptw.RC2
)

// Algorithm and configuration types.
type (
	// Algorithm selects a TSMO variant.
	Algorithm = core.Algorithm
	// Config parameterizes a TSMO run; start from DefaultConfig.
	Config = core.Config
	// CostModel holds the simulated machine's per-operation CPU costs.
	CostModel = core.CostModel
	// Result is a completed run: merged front, evaluations, runtime.
	Result = core.Result
	// Trajectory records the points of the paper's Figure 1.
	Trajectory = core.Trajectory
)

// The TSMO variants of the paper (and its future-work combination).
const (
	Sequential    = core.Sequential
	Synchronous   = core.Synchronous
	Asynchronous  = core.Asynchronous
	Collaborative = core.Collaborative
	Combined      = core.Combined
)

// Runtime backends.
type (
	// Runtime executes the process bodies of a parallel run.
	Runtime = deme.Runtime
	// Machine parameterizes the simulated parallel computer.
	Machine = deme.Machine
	// ProcStats summarizes one process's activity during a run.
	ProcStats = deme.ProcStats
	// FaultPlan describes the faults injected into one process.
	FaultPlan = deme.FaultPlan
	// Faulty is a Runtime decorator injecting per-process faults.
	Faulty = deme.Faulty
)

// WildcardProc is the FaultPlan map key applying to every process without
// a plan of its own.
const WildcardProc = deme.WildcardProc

// Generate builds an extended-Solomon-style CVRPTW instance; it stands in
// for the Homberger 400/600-city benchmark set (see DESIGN.md §2).
func Generate(cfg GenConfig) (*Instance, error) { return vrptw.Generate(cfg) }

// NewInstance builds an instance from explicit sites (Sites[0] = depot).
func NewInstance(name string, sites []Site, vehicles int, capacity float64) (*Instance, error) {
	return vrptw.New(name, sites, vehicles, capacity)
}

// ParseSolomon reads an instance in the classic Solomon text format.
func ParseSolomon(r io.Reader) (*Instance, error) { return vrptw.ParseSolomon(r) }

// WriteSolomon writes an instance in the Solomon text format.
func WriteSolomon(w io.Writer, in *Instance) error { return vrptw.WriteSolomon(w, in) }

// ParseClass converts "R1", "c2", ... to a Class.
func ParseClass(s string) (Class, error) { return vrptw.ParseClass(s) }

// ParseAlgorithm converts "sequential", "asynchronous", ... to an Algorithm.
func ParseAlgorithm(s string) (Algorithm, error) { return core.ParseAlgorithm(s) }

// DefaultConfig returns the paper's experimental configuration
// (100,000 evaluations, neighborhood 200, tenure 20, archive 20,
// restart after 100 stagnant iterations).
func DefaultConfig() Config { return core.DefaultConfig() }

// Origin3800 is the simulated-machine model of the paper's testbed.
func Origin3800() Machine { return deme.Origin3800() }

// IdealMachine is a simulated machine with free communication and no
// noise, isolating algorithmic from machine effects.
func IdealMachine() Machine { return deme.Ideal() }

// NewSimRuntime returns the deterministic discrete-event backend for the
// given machine model.
func NewSimRuntime(m Machine) Runtime { return deme.NewSim(m) }

// NewGoroutineRuntime returns the real-concurrency backend.
func NewGoroutineRuntime() Runtime { return deme.NewGoroutine() }

// NewFaultyRuntime wraps a backend with seeded deterministic fault
// injection; on the simulator every chaos scenario is exactly reproducible.
func NewFaultyRuntime(inner Runtime, plans map[int]FaultPlan) *Faulty {
	return deme.NewFaulty(inner, plans)
}

// ParseFaultPlans parses the -faults command-line syntax, e.g.
// "1:crash@5;0:drop=0.2,tags=2;*:skew=0.1".
func ParseFaultPlans(spec string) (map[int]FaultPlan, error) { return deme.ParseFaultPlans(spec) }

// Solve runs the algorithm on the simulated Origin 3800 — the paper's
// setup and the fully reproducible default.
func Solve(alg Algorithm, in *Instance, cfg Config) (*Result, error) {
	return core.Run(alg, in, cfg, deme.NewSim(deme.Origin3800()))
}

// SolveOn runs the algorithm on an explicit runtime backend (rt.Stats()
// then reports its processes) with cooperative cancellation: when ctx is
// cancelled (or its deadline expires) the search stops within one
// iteration and the partial result is returned with a nil error; check
// ctx.Err() to distinguish a cancelled run from a completed one.
func SolveOn(ctx context.Context, alg Algorithm, in *Instance, cfg Config, rt Runtime) (*Result, error) {
	return core.RunContext(ctx, alg, in, cfg, rt)
}

// Solver service: the embeddable job-queue daemon behind cmd/tsmod. See
// internal/service and DESIGN.md §9.
type (
	// Service is the solver daemon: a bounded job queue feeding a
	// worker pool, with an HTTP API (Service.Handler) that streams
	// archive updates per job.
	Service = service.Service
	// ServiceConfig parameterizes a Service.
	ServiceConfig = service.Config
	// Job is one solve job owned by a Service.
	Job = service.Job
	// JobSpec describes a job submission.
	JobSpec = service.JobSpec
	// JobState is a job's lifecycle state.
	JobState = service.State
	// JobStatus is a job's status snapshot (state, live front, metrics).
	JobStatus = service.Status
)

// NewService starts a solver service with cfg's worker pool.
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// Coverage is Zitzler's set coverage C(a, b): the fraction of b weakly
// dominated by a (the paper's quality metric).
func Coverage(a, b []Objectives) float64 { return metrics.Coverage(a, b) }

// FrontObjectives extracts the objective vectors of a front; feasibleOnly
// follows the paper's convention of excluding time-window violators.
func FrontObjectives(front []*Solution, feasibleOnly bool) []Objectives {
	if feasibleOnly {
		return metrics.FeasibleObjs(front)
	}
	return metrics.Objs(front)
}

// NSGA-II baseline (the comparison the paper proposes as future work).
type (
	// NSGA2Config parameterizes the NSGA-II baseline.
	NSGA2Config = moea.Config
	// NSGA2Result is an NSGA-II run outcome.
	NSGA2Result = moea.Result
)

// SolveNSGA2 runs the NSGA-II baseline on the instance.
func SolveNSGA2(in *Instance, cfg NSGA2Config) (*NSGA2Result, error) { return moea.Run(in, cfg) }

// MOTS baseline (simplified Hansen 1997, the prior multiobjective Tabu
// Search the paper's §III.A discusses).
type (
	// MOTSConfig parameterizes the MOTS baseline.
	MOTSConfig = mots.Config
	// MOTSResult is its outcome.
	MOTSResult = mots.Result
)

// SolveMOTS runs the simplified MOTS baseline on the instance.
func SolveMOTS(in *Instance, cfg MOTSConfig) (*MOTSResult, error) { return mots.Run(in, cfg) }

// Weighted-sum multi-start baseline (the single-criteria alternative the
// paper's §II.C argues against).
type (
	// Weights scalarizes the three objectives.
	Weights = wsum.Weights
	// WeightedConfig parameterizes the multi-start weighted-sum TS.
	WeightedConfig = wsum.Config
	// WeightedResult is its outcome.
	WeightedResult = wsum.Result
)

// WeightLattice returns evenly spread weight vectors on the simplex.
func WeightLattice(resolution int) []Weights { return wsum.Lattice(resolution) }

// SolveWeighted runs one single-objective Tabu Search per weight vector
// and returns the non-dominated set of the best solutions found.
func SolveWeighted(in *Instance, cfg WeightedConfig) (*WeightedResult, error) {
	return wsum.Run(in, cfg)
}
