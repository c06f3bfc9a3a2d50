package telemetry

import (
	"strings"
	"sync"
)

// The counter table. Every integer counter of a run is one CounterID: an
// index into Telemetry's atomic array and into counterTable, which names
// the counter's place in the Snapshot() tree and its Prometheus series.
// Recording is Inc/Add(id) on the *Telemetry; reporting (Snapshot,
// Samples, the service's cross-job sum) loops over the table, so a new
// counter is one constant plus one table row.

// CounterID identifies one integer counter.
type CounterID uint8

// The counters, grouped by subsystem in Snapshot() order.
const (
	// Searcher (Algorithm 1), shared by all processes of a run.
	Iterations          CounterID = iota // selection steps performed
	Evaluations                          // delta/full objective evaluations observed
	RestartsNoCandidate                  // restarts from the "s ∉ N" trigger (empty admissible set)
	RestartsStagnation                   // restarts from the stagnation trigger
	NondomConsumed                       // M_nondom entries consumed by restarts (the paper's ↓↑)
	TabuRejected                         // candidates rejected by the tabu list
	AspirationFires                      // tabu candidates admitted by archive aspiration

	// Asynchronous decision function (Algorithm 2): firings per
	// DecisionReason (see DecisionReason.Counter), and candidates
	// considered in a later iteration than they were born (Figure 1).
	FiresIdleWorker
	FiresDominating
	FiresTimeout
	FiresBudget
	LateCandidates

	// Worker loops of the master–worker variants.
	WorkerChunks     // work messages served
	WorkerCandidates // candidates evaluated by workers

	// Collaborative share traffic.
	SharesSent     // share messages sent
	SharesAccepted // received shares accepted into M_nondom
	SharesRejected // received shares dominated on arrival

	// Bounded non-dominated stores, aggregated over all processes: one
	// block of three per memory, laid out as StoreAccept, StoreReject,
	// StoreEvict from the block's base (ArchiveAccepts or NondomAccepts).
	ArchiveAccepts
	ArchiveRejects
	ArchiveEvictions
	NondomAccepts
	NondomRejects
	NondomEvictions

	// Candidate evaluation: moves delta-evaluated against the schedule
	// cache.
	DeltaFast

	// Exits of solution.Eval.SpliceMetrics, the innermost hot function.
	SpliceCalls
	SplicePrefixFolds      // leading cached prefix folded in O(1)
	SpliceSuffixEarlyExits // trailing suffix proved tardiness-free (Latest bound)
	SpliceSuffixResyncs    // trailing suffix resynchronized with the cached schedule
	SpliceFullWalks        // every segment customer simulated

	// Fault injection (deme.Faulty).
	MsgsDropped    // incoming messages silently discarded
	MsgsDuplicated // incoming messages delivered twice
	MsgsDelayed    // incoming messages held back
	Crashes        // processes terminated by a crash-at-time fault
	Stalls         // stall windows served

	// Fault recovery (core masters and searchers).
	RecvTimeouts    // receive deadlines that expired on a master
	Redispatches    // work chunks re-evaluated after a silent worker
	StaleResults    // results discarded as duplicate or out-of-iteration
	WorkerEvictions // workers removed after persistent silence or death
	WorkerRevivals  // evicted workers re-admitted after a late result
	PeerDrops       // dead peers removed from a share ring
	DegradedIters   // master iterations run with a reduced worker set
	MalformedMsgs   // payloads that failed their type assertion

	// Durability: checkpoint barriers and resumes.
	CkptSnapshots  // checkpoints assembled and handed to the sink
	CkptSinkErrors // sink rejections (the run continues regardless)
	CkptSkipped    // barriers abandoned with incomplete parts
	CkptResumes    // runs restored from a checkpoint

	// Dynamic subsystem: live mutations, splice/repair, warm restarts.
	MutationsApplied  // mutations validated and spliced into a run
	MutationsRejected // mutations refused by validation
	Orphans           // customers greedily re-inserted during repair
	Invalidated       // archived solutions dropped or patched by repair
	PendingDropped    // async pending candidates discarded at a mutation barrier
	WarmRestarts      // search segments resumed after a mutation

	numCounters
)

// Offsets of a store block's counters from its base ID.
const (
	StoreAccept = ArchiveAccepts - ArchiveAccepts
	StoreReject = ArchiveRejects - ArchiveAccepts
	StoreEvict  = ArchiveEvictions - ArchiveAccepts
)

// FloatID identifies one float accumulator (fractional seconds).
type FloatID uint8

const (
	WorkerIdleSeconds  FloatID = iota // worker time blocked waiting for work
	WorkerBusySeconds                 // worker time generating and evaluating candidates
	CkptBarrierSeconds                // modeled seconds spent quiescing at checkpoint barriers
	SpliceSeconds                     // wall seconds spent in mutation splice+repair

	numFloats
)

// counterDesc places one counter in both reports: Snapshot()[group][key]
// (a key "a.b" nests as [group][a][b]) and the Prometheus series family,
// with at most one label pair.
type counterDesc struct {
	group, key        string
	family            string
	label, labelValue string
}

func (d counterDesc) sample(v float64) Sample {
	return Sample{Name: d.family, LabelKey: d.label, LabelValue: d.labelValue, V: v}
}

var counterTable = [numCounters]counterDesc{
	Iterations:          {"search", "iterations", "tsmo_search_iterations_total", "", ""},
	Evaluations:         {"search", "evaluations", "tsmo_search_evaluations_total", "", ""},
	RestartsNoCandidate: {"search", "restarts_no_cand", "tsmo_search_restarts_total", "trigger", "no_candidate"},
	RestartsStagnation:  {"search", "restarts_stagnation", "tsmo_search_restarts_total", "trigger", "stagnation"},
	NondomConsumed:      {"search", "nondom_consumed", "tsmo_search_nondom_consumed_total", "", ""},
	TabuRejected:        {"search", "tabu_rejected", "tsmo_search_tabu_rejected_total", "", ""},
	AspirationFires:     {"search", "aspiration_fires", "tsmo_search_aspiration_fires_total", "", ""},

	FiresIdleWorker: {"async", "decision_fires.idle_worker", "tsmo_async_decision_total", "reason", "idle_worker"},
	FiresDominating: {"async", "decision_fires.dominating_candidate", "tsmo_async_decision_total", "reason", "dominating_candidate"},
	FiresTimeout:    {"async", "decision_fires.timeout", "tsmo_async_decision_total", "reason", "timeout"},
	FiresBudget:     {"async", "decision_fires.budget_exhausted", "tsmo_async_decision_total", "reason", "budget_exhausted"},
	LateCandidates:  {"async", "late_candidates", "tsmo_async_late_candidates_total", "", ""},

	WorkerChunks:     {"worker", "chunks", "tsmo_worker_chunks_total", "", ""},
	WorkerCandidates: {"worker", "candidates", "tsmo_worker_candidates_total", "", ""},

	SharesSent:     {"share", "sent", "tsmo_share_sent_total", "", ""},
	SharesAccepted: {"share", "accepted", "tsmo_share_received_total", "outcome", "accepted"},
	SharesRejected: {"share", "rejected", "tsmo_share_received_total", "outcome", "rejected"},

	ArchiveAccepts:   {"archive", "accepts", "tsmo_store_accepts_total", "memory", "archive"},
	ArchiveRejects:   {"archive", "rejects", "tsmo_store_rejects_total", "memory", "archive"},
	ArchiveEvictions: {"archive", "evictions", "tsmo_store_evictions_total", "memory", "archive"},
	NondomAccepts:    {"nondom", "accepts", "tsmo_store_accepts_total", "memory", "nondom"},
	NondomRejects:    {"nondom", "rejects", "tsmo_store_rejects_total", "memory", "nondom"},
	NondomEvictions:  {"nondom", "evictions", "tsmo_store_evictions_total", "memory", "nondom"},

	DeltaFast: {"delta", "fast", "tsmo_delta_evals_total", "path", "fast"},

	SpliceCalls:            {"splice", "calls", "tsmo_splice_calls_total", "", ""},
	SplicePrefixFolds:      {"splice", "prefix_folds", "tsmo_splice_exits_total", "kind", "prefix_fold"},
	SpliceSuffixEarlyExits: {"splice", "suffix_early_exits", "tsmo_splice_exits_total", "kind", "suffix_early_exit"},
	SpliceSuffixResyncs:    {"splice", "suffix_resyncs", "tsmo_splice_exits_total", "kind", "suffix_resync"},
	SpliceFullWalks:        {"splice", "full_walks", "tsmo_splice_exits_total", "kind", "full_walk"},

	MsgsDropped:    {"faults", "msgs_dropped", "tsmo_faults_injected_total", "kind", "msg_dropped"},
	MsgsDuplicated: {"faults", "msgs_duplicated", "tsmo_faults_injected_total", "kind", "msg_duplicated"},
	MsgsDelayed:    {"faults", "msgs_delayed", "tsmo_faults_injected_total", "kind", "msg_delayed"},
	Crashes:        {"faults", "crashes", "tsmo_faults_injected_total", "kind", "crash"},
	Stalls:         {"faults", "stalls", "tsmo_faults_injected_total", "kind", "stall"},

	RecvTimeouts:    {"faults", "recv_timeouts", "tsmo_fault_recovery_total", "kind", "recv_timeout"},
	Redispatches:    {"faults", "redispatches", "tsmo_fault_recovery_total", "kind", "redispatch"},
	StaleResults:    {"faults", "stale_results", "tsmo_fault_recovery_total", "kind", "stale_result"},
	WorkerEvictions: {"faults", "worker_evictions", "tsmo_fault_recovery_total", "kind", "worker_eviction"},
	WorkerRevivals:  {"faults", "worker_revivals", "tsmo_fault_recovery_total", "kind", "worker_revival"},
	PeerDrops:       {"faults", "peer_drops", "tsmo_fault_recovery_total", "kind", "peer_drop"},
	DegradedIters:   {"faults", "degraded_iters", "tsmo_fault_recovery_total", "kind", "degraded_iteration"},
	MalformedMsgs:   {"faults", "malformed_msgs", "tsmo_fault_recovery_total", "kind", "malformed_msg"},

	CkptSnapshots:  {"checkpoint", "snapshots", "tsmo_checkpoint_snapshots_total", "", ""},
	CkptSinkErrors: {"checkpoint", "sink_errors", "tsmo_checkpoint_sink_errors_total", "", ""},
	CkptSkipped:    {"checkpoint", "skipped", "tsmo_checkpoint_skipped_total", "", ""},
	CkptResumes:    {"checkpoint", "resumes", "tsmo_checkpoint_resumes_total", "", ""},

	MutationsApplied:  {"dynamic", "applied", "tsmo_dynamic_mutations_total", "outcome", "applied"},
	MutationsRejected: {"dynamic", "rejected", "tsmo_dynamic_mutations_total", "outcome", "rejected"},
	Orphans:           {"dynamic", "orphans", "tsmo_dynamic_orphans_total", "", ""},
	Invalidated:       {"dynamic", "invalidated", "tsmo_dynamic_invalidated_total", "", ""},
	PendingDropped:    {"dynamic", "pending_dropped", "tsmo_dynamic_pending_dropped_total", "", ""},
	WarmRestarts:      {"dynamic", "warm_restarts", "tsmo_dynamic_warm_restarts_total", "", ""},
}

var floatTable = [numFloats]counterDesc{
	WorkerIdleSeconds:  {"worker", "idle_seconds", "tsmo_worker_idle_seconds_total", "", ""},
	WorkerBusySeconds:  {"worker", "busy_seconds", "tsmo_worker_busy_seconds_total", "", ""},
	CkptBarrierSeconds: {"checkpoint", "barrier_seconds", "tsmo_checkpoint_barrier_seconds_total", "", ""},
	SpliceSeconds:      {"dynamic", "splice_seconds", "tsmo_dynamic_splice_seconds_total", "", ""},
}

// OpKinds bounds the operator funnel: one row per move kind index
// (operators.MoveKind), kind 0 meaning "no operator".
const OpKinds = 16

// OpStage is one step of an operator's funnel: proposals drawn,
// selections as the next current solution and acceptances into the
// archive, plus two generation-side failures — Propose calls that
// exhausted their attempt budget, and granular proposals that fell back
// to the full-neighborhood path.
type OpStage uint8

const (
	OpProposed OpStage = iota
	OpSelected
	OpAccepted
	OpExhausted
	OpFallbacks

	NumOpStages
)

// opStageTable names each stage's Snapshot() key and Prometheus family;
// the series carry the operator name as their "op" label.
var opStageTable = [NumOpStages]struct{ key, family string }{
	OpProposed:  {"proposed", "tsmo_operator_proposed_total"},
	OpSelected:  {"selected", "tsmo_operator_selected_total"},
	OpAccepted:  {"accepted", "tsmo_operator_accepted_total"},
	OpExhausted: {"exhausted", "tsmo_operator_exhausted_total"},
	OpFallbacks: {"granular_fallbacks", "tsmo_operator_fallbacks_total"},
}

// opRow is one move kind's funnel. The caller's static operator name is
// recorded on the row's first count; every reader finds it set once any
// count is non-zero, since the name is stored before the first increment.
type opRow struct {
	once sync.Once
	name string
	n    [NumOpStages]Counter
}

func (r *opRow) add(name string, st OpStage, n int) {
	r.once.Do(func() { r.name = name })
	r.n[st].Add(int64(n))
}

// Inc adds 1 to the counter.
func (t *Telemetry) Inc(id CounterID) {
	if t != nil {
		t.counters[id].Inc()
	}
}

// Add adds n to the counter.
func (t *Telemetry) Add(id CounterID, n int) {
	if t != nil {
		t.counters[id].Add(int64(n))
	}
}

// Load returns the counter's value (0 when disabled).
func (t *Telemetry) Load(id CounterID) int64 {
	if t == nil {
		return 0
	}
	return t.counters[id].Load()
}

// AddFloat accumulates v into the float counter.
func (t *Telemetry) AddFloat(id FloatID, v float64) {
	if t != nil {
		t.floats[id].Add(v)
	}
}

// IncOp counts one funnel stage of the operator with the given move kind
// and static name. Kind 0 (no operator) is not counted.
func (t *Telemetry) IncOp(kind uint8, name string, st OpStage) {
	t.AddOp(kind, name, st, 1)
}

// AddOp counts n of one funnel stage at once, as a sweep counts its
// proposals per move kind. A zero n counts nothing.
func (t *Telemetry) AddOp(kind uint8, name string, st OpStage, n int) {
	if t != nil && kind != 0 && n != 0 {
		t.ops[kind].add(name, st, n)
	}
}

// Counters is a point-in-time copy of a Telemetry's counters, float
// accumulators and operator funnel — or the sum of several such copies, as
// the solver service folds its jobs'.
type Counters struct {
	n   [numCounters]int64
	f   [numFloats]float64
	ops [OpKinds]OpCounts
}

// OpCounts is one operator's funnel row: its name and its count per
// OpStage.
type OpCounts struct {
	Name string
	N    [NumOpStages]int64
}

func (o *OpCounts) used() bool { return o.N != [NumOpStages]int64{} }

// Counters copies every counter (all zero when disabled).
func (t *Telemetry) Counters() Counters {
	var c Counters
	if t == nil {
		return c
	}
	for i := range t.counters {
		c.n[i] = t.counters[i].Load()
	}
	for i := range t.floats {
		c.f[i] = t.floats[i].Load()
	}
	for k := range t.ops {
		r, o := &t.ops[k], &c.ops[k]
		for st := range r.n {
			o.N[st] = r.n[st].Load()
		}
		if o.used() {
			o.Name = r.name
		}
	}
	return c
}

// Add sums o into c.
func (c *Counters) Add(o *Counters) {
	for i := range c.n {
		c.n[i] += o.n[i]
	}
	for i := range c.f {
		c.f[i] += o.f[i]
	}
	for k := range c.ops {
		if o.ops[k].used() {
			c.ops[k].Name = o.ops[k].Name
		}
		for st := range c.ops[k].N {
			c.ops[k].N[st] += o.ops[k].N[st]
		}
	}
}

// Funnel returns the operator rows with at least one non-zero count, in
// move-kind order.
func (c *Counters) Funnel() []OpCounts {
	var out []OpCounts
	for k := range c.ops {
		if c.ops[k].used() {
			out = append(out, c.ops[k])
		}
	}
	return out
}

// Samples flattens the counters into exposition samples: every table
// counter and float accumulator, and the five series of each used
// operator row.
func (c *Counters) Samples() []Sample {
	out := make([]Sample, 0, int(numCounters)+int(numFloats))
	for id, d := range counterTable {
		out = append(out, d.sample(float64(c.n[id])))
	}
	for id, d := range floatTable {
		out = append(out, d.sample(c.f[id]))
	}
	for _, op := range c.Funnel() {
		for st, d := range opStageTable {
			out = append(out, Sample{Name: d.family, LabelKey: "op", LabelValue: op.Name, V: float64(op.N[st])})
		}
	}
	return out
}

// Snapshot returns every instrument's current value in a JSON-ready tree —
// the payload of the run report's "summary" event, the expvar export and
// the /telemetry endpoint.
func (t *Telemetry) Snapshot() map[string]any {
	if t == nil {
		return nil
	}
	c := t.Counters()
	out := map[string]any{}
	group := func(name string) map[string]any {
		g, ok := out[name].(map[string]any)
		if !ok {
			g = map[string]any{}
			out[name] = g
		}
		return g
	}
	put := func(d counterDesc, v any) {
		g := group(d.group)
		if outer, inner, nested := strings.Cut(d.key, "."); nested {
			sub, ok := g[outer].(map[string]any)
			if !ok {
				sub = map[string]any{}
				g[outer] = sub
			}
			sub[inner] = v
			return
		}
		g[d.key] = v
	}
	for id, d := range counterTable {
		put(d, c.n[id])
	}
	for id, d := range floatTable {
		put(d, c.f[id])
	}
	group("async")["partial_sizes"] = t.Async.PartialSizes.Snapshot()
	group("async")["wait_ns"] = t.Async.WaitSeconds.Snapshot()
	group("dynamic")["splice_ns"] = t.SpliceNanos.Snapshot()
	out["peer_shares"] = t.Peers.Snapshot()

	ops := map[string]map[string]any{}
	for _, op := range c.Funnel() {
		e := map[string]any{}
		for st, d := range opStageTable {
			e[d.key] = op.N[st]
		}
		if p := op.N[OpProposed]; p > 0 {
			e["select_rate"] = float64(op.N[OpSelected]) / float64(p)
			e["accept_rate"] = float64(op.N[OpAccepted]) / float64(p)
		}
		ops[op.Name] = e
	}
	out["operators"] = ops
	return out
}
