package telemetry

// Typed solver events and the convergence sample. Each event kind renders
// its wire name and fields in exactly one method, Render, shared by the
// JSONL report, the slog stream and the solver service's SSE buffer; hooks
// receive the typed value itself.

import (
	"encoding/json"
	"math"
)

// ConvergenceSample is one point of a run's convergence curve, taken by
// the sampling process every Config.SampleEvery evaluations. It is the one
// sample of core.Result.Samples, the checkpoint, the "snapshot" event and
// the flight recorder, and holds no maps, so samples compare with ==.
type ConvergenceSample struct {
	Evals       int     `json:"evals"`        // evaluations seen by the sampling process
	Iteration   int     `json:"iteration"`    // its completed iterations
	Time        float64 `json:"time"`         // its runtime: virtual seconds on the simulator
	ArchiveSize int     `json:"archive_size"` // M_archive entries
	NondomSize  int     `json:"nondom_size"`  // M_nondom entries
	// BestDistance and BestVehicles are the smallest feasible distance and
	// vehicle count in the archive: +Inf, and omitted from JSON, while it
	// holds no feasible solution.
	BestDistance float64 `json:"best_distance"`
	BestVehicles float64 `json:"best_vehicles"`
	// Hypervolume of the feasible archive against the run's reference
	// point (metrics.HVReference of the construction solution), and
	// Schott's spacing of the same points.
	Hypervolume float64 `json:"hypervolume"`
	Spacing     float64 `json:"spacing"`
}

// plainSample is ConvergenceSample without its JSON methods.
type plainSample ConvergenceSample

// MarshalJSON omits each best-feasible field while it holds the +Inf
// sentinel, which encoding/json would reject: the outer pointer fields
// shadow the embedded ones, and a nil one is omitted.
func (s ConvergenceSample) MarshalJSON() ([]byte, error) {
	dist, veh := &s.BestDistance, &s.BestVehicles
	if math.IsInf(*dist, 1) {
		dist = nil
	}
	if math.IsInf(*veh, 1) {
		veh = nil
	}
	if dist != nil && veh != nil {
		return json.Marshal(plainSample(s))
	}
	return json.Marshal(struct {
		plainSample
		BestDistance *float64 `json:"best_distance,omitempty"`
		BestVehicles *float64 `json:"best_vehicles,omitempty"`
	}{plainSample(s), dist, veh})
}

// UnmarshalJSON restores the +Inf sentinel for omitted best-feasible
// fields.
func (s *ConvergenceSample) UnmarshalJSON(data []byte) error {
	*s = ConvergenceSample{BestDistance: math.Inf(1), BestVehicles: math.Inf(1)}
	return json.Unmarshal(data, (*plainSample)(s))
}

// Event is one structured occurrence of a run. Render returns its wire
// "event" name and its wire fields in a fresh map.
type Event interface {
	Render() (name string, fields map[string]any)
}

// Record is a named event with caller-built fields: the run-boundary
// records run_start and summary.
type Record struct {
	Kind   string
	Values map[string]any
}

func (r Record) Render() (string, map[string]any) { return r.Kind, r.Values }

// Objectives is an objective triple on the event stream, laid out like
// solution.Objectives (which imports this package) so the two convert.
type Objectives struct{ Distance, Vehicles, Tardiness float64 }

// InitEvent reports a process's construction solution.
type InitEvent struct {
	Proc int
	Obj  Objectives
}

func (e InitEvent) Render() (string, map[string]any) {
	return "init", map[string]any{"proc": e.Proc, "distance": e.Obj.Distance, "vehicles": e.Obj.Vehicles, "tardiness": e.Obj.Tardiness}
}

// AcceptEvent reports a new current solution entering M_archive: the
// evolving front the solver service streams to its subscribers. Operator
// is "" after a restart.
type AcceptEvent struct {
	Proc, Iteration int
	Time            float64
	Obj             Objectives
	Feasible        bool
	Operator        string
	ArchiveSize     int
}

func (e AcceptEvent) Render() (string, map[string]any) {
	return "archive_accept", map[string]any{
		"proc": e.Proc, "iteration": e.Iteration, "time": e.Time,
		"distance": e.Obj.Distance, "vehicles": e.Obj.Vehicles, "tardiness": e.Obj.Tardiness,
		"feasible": e.Feasible, "operator": e.Operator, "archive_size": e.ArchiveSize,
	}
}

// RestartEvent reports a restart from the memories, triggered by an empty
// admissible set ("s ∉ N", NoCandidate) or by stagnation.
type RestartEvent struct {
	Proc, Iteration                         int
	NoCandidate                             bool
	NondomConsumed, NondomSize, ArchiveSize int
}

func (e RestartEvent) Render() (string, map[string]any) {
	trigger := "stagnation"
	if e.NoCandidate {
		trigger = "no_candidate"
	}
	return "restart", map[string]any{
		"proc": e.Proc, "iteration": e.Iteration, "trigger": trigger,
		"nondom_consumed": e.NondomConsumed, "nondom_size": e.NondomSize, "archive_size": e.ArchiveSize,
	}
}

// DecisionEvent reports one firing of the asynchronous master's decision
// function (Algorithm 2): the pending candidates it proceeds with, how many
// of them are late (born in an earlier iteration), and the wait.
type DecisionEvent struct {
	Proc, Iteration int
	Reason          DecisionReason
	Pending, Late   int
	WaitSeconds     float64
}

func (e DecisionEvent) Render() (string, map[string]any) {
	return "decision", map[string]any{
		"proc": e.Proc, "iteration": e.Iteration, "reason": e.Reason.String(),
		"pending": e.Pending, "late": e.Late, "wait_seconds": e.WaitSeconds,
	}
}

// SnapshotEvent carries one convergence sample with the hypervolume
// reference point it was measured against.
type SnapshotEvent struct {
	Proc   int
	HVRef  Objectives
	Sample ConvergenceSample
}

func (e SnapshotEvent) Render() (string, map[string]any) {
	s := e.Sample
	m := map[string]any{
		"proc": e.Proc, "evals": s.Evals, "iteration": s.Iteration, "time": s.Time,
		"archive_size": s.ArchiveSize, "nondom_size": s.NondomSize,
		"hypervolume": s.Hypervolume, "spacing": s.Spacing,
		"hv_ref": map[string]float64{"distance": e.HVRef.Distance, "vehicles": e.HVRef.Vehicles, "tardiness": e.HVRef.Tardiness},
	}
	if !math.IsInf(s.BestDistance, 1) {
		m["best_distance"], m["best_vehicles"] = s.BestDistance, s.BestVehicles
	}
	return "snapshot", m
}
