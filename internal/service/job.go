package service

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/flight"
	"repro/internal/metrics"
	"repro/internal/resultio"
	"repro/internal/seqlog"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// State is a job's position in its lifecycle:
//
//	queued -> running -> done | failed
//	queued | running  -> canceled
type State string

// The job states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// InstanceSpec selects a job's CVRPTW instance: either inline Solomon-format
// text, or a generated instance named by (class, n, seed) — the same knobs
// as cmd/vrptwgen. Exactly one of the two forms must be used.
type InstanceSpec struct {
	// Solomon is the full text of a Solomon-format instance file.
	Solomon string `json:"solomon,omitempty"`
	// Class is a generator class name (R1, C1, RC1, R2, C2, RC2).
	Class string `json:"class,omitempty"`
	// N is the generated customer count.
	N int `json:"n,omitempty"`
	// Seed is the generator seed.
	Seed uint64 `json:"seed,omitempty"`
}

// JobSpec is the body of POST /v1/jobs. Zero-valued fields take the solver
// defaults (core.DefaultConfig, clamped by the service's limits).
type JobSpec struct {
	Instance InstanceSpec `json:"instance"`
	// Algorithm is a TSMO variant name (sequential, synchronous,
	// asynchronous, collaborative, combined). Default: sequential.
	Algorithm string `json:"algorithm,omitempty"`
	// Processors is the process count for the parallel variants.
	// Default: 1 for sequential, 3 otherwise.
	Processors int `json:"processors,omitempty"`
	// Seed is the search seed.
	Seed uint64 `json:"seed,omitempty"`
	// MaxEvaluations is the evaluation budget, clamped by the service's
	// Config.MaxEvaluations.
	MaxEvaluations int `json:"max_evaluations,omitempty"`
	// MaxSeconds is the in-run runtime budget (virtual seconds on the sim
	// backend, wall seconds on the goroutine backend).
	MaxSeconds float64 `json:"max_seconds,omitempty"`
	// WallSeconds is a real-time deadline enforced by the service
	// regardless of backend; the run is stopped (keeping its partial
	// front) when it expires. Clamped by Config.MaxWallSeconds, which is
	// also the default when this is 0.
	WallSeconds float64 `json:"wall_seconds,omitempty"`
	// Neighborhood, Tenure, Archive, Nondom, RestartIters and Islands
	// override the corresponding search parameters when positive.
	Neighborhood int `json:"neighborhood,omitempty"`
	Tenure       int `json:"tenure,omitempty"`
	Archive      int `json:"archive,omitempty"`
	Nondom       int `json:"nondom,omitempty"`
	RestartIters int `json:"restart_iters,omitempty"`
	Islands      int `json:"islands,omitempty"`
	// GranularK switches the searchers to granular neighborhoods drawn
	// from the k-nearest arc graph.
	GranularK int `json:"granular_k,omitempty"`
	// Backend selects the runtime: "sim" (deterministic machine
	// simulator, the default) or "goroutine" (real concurrency).
	Backend string `json:"backend,omitempty"`
	// SampleEvery enables convergence samples in the stored result.
	SampleEvery int `json:"sample_every,omitempty"`
	// Traceparent is a W3C trace-context header value tying the job's
	// spans to a caller-initiated distributed trace. The HTTP handler
	// fills it from the request's traceparent header (which wins over a
	// body value); malformed values start a fresh trace. See DESIGN.md §12.
	Traceparent string `json:"traceparent,omitempty"`
	// IdempotencyKey, when non-empty, makes the submission retry-safe: a
	// second submission carrying a key the service has already accepted
	// returns the original job instead of creating a duplicate. Keys live
	// as long as their job is retained and survive daemon restarts on
	// durable services.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
	// Tenant is the owning tenant — the scheduler lane the job waits
	// in. The service sets it from the request's credentials (a
	// client-supplied value is overwritten), and it is journaled so
	// recovery re-queues the job into the same lane.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the job within its tenant's lane: higher
	// dispatches first, equal priorities FIFO. Clamped to the tenant
	// policy's MaxPriority; it never affects other tenants' shares.
	Priority int `json:"priority,omitempty"`
	// DeadlineSeconds, when positive, is a client deadline relative to
	// submission: a job still queued past it is shed (failed, never
	// started), and a running job's searcher context is bounded by it —
	// deadline propagation from client to search loop. After a crash,
	// recovery re-arms it relative to the restart.
	DeadlineSeconds float64 `json:"deadline_seconds,omitempty"`
	// ShareGroup, ShareShard and ShareShards make the job one shard of a
	// cluster-share group: its archive-entering solutions are published on
	// GET /v1/shares/{group}/{shard} and, when ShareShards > 1, the
	// sibling shards' batches are gathered through the dialer configured
	// in Config.ShareDial and folded into the search every ShareEvery
	// master iterations (0 picks the solver default). Set by the cluster
	// coordinator when fanning out a "cluster_share" job.
	ShareGroup  string `json:"share_group,omitempty"`
	ShareShard  int    `json:"share_shard,omitempty"`
	ShareShards int    `json:"share_shards,omitempty"`
	ShareEvery  int    `json:"share_every,omitempty"`
	// Resume, when non-empty, is an encoded checkpoint envelope
	// (core.EncodeCheckpoint) the job continues from instead of starting
	// fresh — the migration path: the coordinator ships a dead node's last
	// checkpoint to a survivor. The rest of the spec must describe the
	// same run (the checkpoint's digests are verified on resume).
	Resume json.RawMessage `json:"resume,omitempty"`
}

// Event is one entry of a job's event stream: service lifecycle events
// (queued, started, done, failed, canceled) interleaved with solver events
// tapped from the telemetry layer (init, archive_accept, restart,
// decision, ...). Seq increases by one per event and doubles as the SSE
// event id, so clients resume with Last-Event-ID.
type Event struct {
	Seq    int            `json:"seq"`
	TS     time.Time      `json:"ts"`
	Name   string         `json:"name"`
	Fields map[string]any `json:"fields,omitempty"`
}

// FrontPoint is one member of a job's live Pareto-front mirror, built from
// archive_accept events as they stream out of the searchers.
type FrontPoint struct {
	Distance  float64 `json:"distance"`
	Vehicles  float64 `json:"vehicles"`
	Tardiness float64 `json:"tardiness"`
	Feasible  bool    `json:"feasible"`
	Proc      int     `json:"proc"`
	Iteration int     `json:"iteration"`
	Time      float64 `json:"time"`
}

func (p FrontPoint) objectives() solution.Objectives {
	return solution.Objectives{Distance: p.Distance, Vehicles: p.Vehicles, Tardiness: p.Tardiness}
}

// maxEvents bounds a job's retained event log. Older events are dropped
// oldest-first; an SSE resume pointing before the retained window restarts
// from the oldest retained event.
const maxEvents = 16384

// jobEvent is one entry of a job's event log: a typed solver event, or a
// lifecycle event as a telemetry.Record, and when it was appended. Its wire
// form, an Event, is rendered only when a subscriber reads it.
type jobEvent struct {
	ts time.Time
	ev telemetry.Event
}

// jobTraceRingCap bounds a job's completed-span log, which grows on
// demand up to it. It is smaller than trace.DefaultRingCap because every
// retained job keeps its spans; long parallel runs overflow it by dropping
// the oldest eval-shard leaves while the long-lived lifecycle spans — which
// end last — always survive.
const jobTraceRingCap = 1024

// Job is one solve job owned by a Service.
type Job struct {
	// ID is the service-assigned job id.
	ID string
	// Spec echoes the submitted specification.
	Spec JobSpec

	svc *Service
	alg core.Algorithm
	cfg core.Config
	// in is the base instance the run starts from, nil once the job is
	// terminal; instName and customers outlive it for Status.
	in        *vrptw.Instance
	instName  string
	customers int
	backend   string
	wall      time.Duration
	tel       *telemetry.Telemetry
	ctx       context.Context
	cancel    context.CancelFunc
	doneOnce  sync.Once

	// tr is the job's span recorder; rootSpan ("job") covers the whole
	// lifecycle and parents every other span, queueSpan ("queue") the
	// submit-to-start wait. fr is the flight recording, fed by the solver's
	// periodic snapshot events. events is the event log the SSE stream
	// serves, finished once the job is terminal.
	tr        *trace.Trace
	rootSpan  *trace.Span
	queueSpan *trace.Span
	fr        *seqlog.Log[flight.Sample]
	events    *seqlog.Log[jobEvent]

	// resume is the checkpoint a re-queued (journal recovery) or migrated
	// (JobSpec.Resume) job continues from, set before the job is reachable
	// and dropped once it is terminal.
	resume *core.Checkpoint

	// deadline is the absolute client deadline (JobSpec.DeadlineSeconds
	// past submission), zero when none. recoveredPending marks a
	// recovery-requeued job whose first dispatch (or cancellation)
	// decrements the service's recovering gauge, exactly once.
	deadline         time.Time
	recoveredPending bool
	recoveredOnce    sync.Once

	// mutScheduled counts mutations accepted onto this job, enforcing
	// the tenant policy's per-job MutationBudget. Guarded by j.mu.
	mutScheduled int

	// dyn is the job's live-mutation schedule, nil when the job cannot
	// accept instance mutations (no checkpoint barriers, or a
	// cluster-share shard). Created with the job, and wired into its run
	// configuration, so PATCHes land while the job is still queued.
	// recoveredMuts are the journaled mutate records recovery replayed —
	// retained so journal compaction keeps them (set before the job is
	// reachable, read before the workers start).
	dyn           *dynamic.Schedule
	recoveredMuts []journalRecord
	// proj is the instance the last accepted mutation batch was validated
	// against: in projected through the log that batch committed, so the
	// next batch at the log's tail projects only itself (see MutateAs).
	// Guarded by j.mu and dropped with the instance.
	proj projection

	// Latest checkpoint envelope, kept in memory while a checkpointed job
	// (durable or not) is live so GET /v1/jobs/{id}/checkpoint can hand
	// the cluster coordinator a migration artifact. Guarded by ckptMu, not
	// j.mu: storeCheckpoint runs on a solver goroutine and must never
	// contend with the observe hook.
	ckptMu      sync.Mutex
	lastCkpt    []byte
	lastBarrier int

	mu         sync.Mutex
	state      State
	userCancel bool
	submitted  time.Time
	started    time.Time
	finished   time.Time
	errText    string
	front      []FrontPoint
	hvRef      solution.Objectives
	haveRef    bool
	// result is a terminal job's answer, the front GET /result serves, and
	// iterations the run's master iterations; nil and 0 before the job is
	// terminal or when it produced no result.
	result     *resultio.FrontFile
	iterations int
	firstPoint time.Time // when the first front point arrived (SLO histogram)
	// pendingMarker tags the next flight-recorder sample with the most
	// recent mutation epoch ("mutation@12"), so tsmo-compare can align
	// recordings across a mutation.
	pendingMarker string
}

// newJob validates a spec against the service limits and materializes the
// instance and solver configuration. Errors are submission errors (HTTP 400).
func newJob(spec JobSpec, limits *Config) (*Job, error) {
	in, err := specInstance(spec.Instance, limits.MaxCustomers)
	if err != nil {
		return nil, fmt.Errorf("instance: %w", err)
	}
	j, err := jobFromSpec(spec, limits, in.Name)
	if err != nil {
		return nil, err
	}
	if j.resume != nil {
		// Refused here, not when a worker resumes it: a coordinator
		// migrating the checkpoint sees the 400.
		if err := j.resume.CheckRoutes(in); err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
	}
	j.in, j.customers = in, in.N()
	return j, nil
}

// specInstance parses or generates the instance a spec selects. An
// instance of more than maxCustomers customers (0: no limit) is refused
// before it is generated or its text parsed past the limit.
func specInstance(spec InstanceSpec, maxCustomers int) (*vrptw.Instance, error) {
	switch {
	case spec.Solomon != "" && spec.Class != "":
		return nil, fmt.Errorf("solomon text and generator class are mutually exclusive")
	case spec.Solomon != "":
		return vrptw.ParseSolomonMax(strings.NewReader(spec.Solomon), maxCustomers)
	case spec.Class != "":
		class, err := vrptw.ParseClass(spec.Class)
		if err != nil {
			return nil, err
		}
		if maxCustomers > 0 && spec.N > maxCustomers {
			return nil, fmt.Errorf("%d customers exceeds the service limit of %d", spec.N, maxCustomers)
		}
		return vrptw.Generate(vrptw.GenConfig{Class: class, N: spec.N, Seed: spec.Seed})
	default:
		return nil, fmt.Errorf("provide either inline solomon text or a generator class")
	}
}

// jobFromSpec validates everything in a spec but its instance and
// materializes the job around the instance name: newJob adds the instance,
// and recovery uses it bare for a terminal job, which never runs again.
func jobFromSpec(spec JobSpec, limits *Config, instName string) (*Job, error) {
	j := &Job{
		Spec:     spec,
		state:    StateQueued,
		events:   seqlog.New[jobEvent](maxEvents),
		backend:  spec.Backend,
		instName: instName,
	}

	algName := spec.Algorithm
	if algName == "" {
		algName = "sequential"
	}
	alg, err := core.ParseAlgorithm(algName)
	if err != nil {
		return nil, err
	}
	j.alg = alg

	cfg := core.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.Processors = spec.Processors
	if cfg.Processors == 0 {
		if alg == core.Sequential {
			cfg.Processors = 1
		} else {
			cfg.Processors = 3
		}
	}
	if limits.MaxProcessors > 0 && cfg.Processors > limits.MaxProcessors {
		return nil, fmt.Errorf("processors: %d exceeds the service limit of %d", cfg.Processors, limits.MaxProcessors)
	}
	if spec.MaxEvaluations > 0 {
		cfg.MaxEvaluations = spec.MaxEvaluations
	}
	if limits.MaxEvaluations > 0 && cfg.MaxEvaluations > limits.MaxEvaluations {
		return nil, fmt.Errorf("max_evaluations: %d exceeds the service limit of %d", cfg.MaxEvaluations, limits.MaxEvaluations)
	}
	cfg.MaxSeconds = spec.MaxSeconds
	if spec.Neighborhood > 0 {
		cfg.NeighborhoodSize = spec.Neighborhood
	}
	if spec.Tenure > 0 {
		cfg.TabuTenure = spec.Tenure
	}
	if spec.Archive > 0 {
		cfg.ArchiveSize = spec.Archive
	}
	if spec.Nondom > 0 {
		cfg.NondomSize = spec.Nondom
	}
	if spec.RestartIters > 0 {
		cfg.RestartIterations = spec.RestartIters
	}
	cfg.Islands = spec.Islands
	cfg.GranularK = spec.GranularK
	if err := validateShareSpec(&spec, limits); err != nil {
		return nil, err
	}
	cfg.ShareEvery = spec.ShareEvery
	if len(spec.Resume) > 0 {
		ck, err := core.DecodeCheckpoint(spec.Resume)
		if err != nil {
			return nil, fmt.Errorf("resume: %w", err)
		}
		j.resume = ck
		// Seed the in-memory checkpoint cache: if this node dies too, the
		// job is migratable again even before its first new barrier.
		j.lastCkpt = append([]byte(nil), spec.Resume...)
		j.lastBarrier = ck.Barrier
	}
	cfg.SampleEvery = spec.SampleEvery
	if cfg.SampleEvery <= 0 {
		// Default the sampling grid so every job leaves a flight recording:
		// ~64 samples across the budget, but never so dense that sampling
		// overhead shows on small jobs. Deterministic in the spec (recovery
		// rebuilds the job from its journaled spec and lands on the same
		// grid), so resumed runs keep bit-identical trajectories.
		cfg.SampleEvery = cfg.MaxEvaluations / 64
		if cfg.SampleEvery < 1000 {
			cfg.SampleEvery = 1000
		}
	}

	switch spec.Backend {
	case "", "sim":
		j.backend = "sim"
	case "goroutine":
		j.backend = "goroutine"
	default:
		return nil, fmt.Errorf("backend: unknown backend %q (want sim or goroutine)", spec.Backend)
	}

	wall := spec.WallSeconds
	if limits.MaxWallSeconds > 0 && (wall <= 0 || wall > limits.MaxWallSeconds) {
		wall = limits.MaxWallSeconds
	}
	if wall > 0 {
		j.wall = time.Duration(wall * float64(time.Second))
	}
	if spec.DeadlineSeconds < 0 {
		return nil, fmt.Errorf("deadline_seconds: must be >= 0, got %g", spec.DeadlineSeconds)
	}
	if spec.DeadlineSeconds > 0 {
		// Anchored at materialization: submission time for new jobs, the
		// restart for recovered ones (the original anchor died with the
		// old process; re-arming the full window is the lenient choice).
		j.deadline = time.Now().Add(time.Duration(spec.DeadlineSeconds * float64(time.Second)))
	}
	if j.Spec.Tenant == "" {
		// Pre-tenancy journals and embedded callers: everything without
		// an owner is the anonymous tenant.
		j.Spec.Tenant = tenant.Anonymous
	}

	// A per-job telemetry layer with an event hook: the solver's stream
	// events (archive_accept, init, restart, decision, ...) feed the
	// job's event log and live front mirror. The layer carries no
	// logger or JSONL writer, so instruments stay cheap.
	j.tel = telemetry.New(nil, nil)
	j.tel.SetHook(j.observe)
	cfg.Telemetry = j.tel

	// The checkpoint plan, decided once. A resumed run keeps the interval
	// it was cut at: the barrier cadence is part of the deterministic
	// trajectory. The combined variant and an in-run MaxSeconds budget
	// cannot be checkpointed deterministically (the solver refuses both),
	// so those runs take no checkpoints and restart from their spec after
	// a crash. A checkpointed job stores every snapshot with
	// storeCheckpoint and, unless it is a cluster-share shard (shared
	// solutions would reference diverging instances), accepts live
	// instance mutations: the schedule exists from submission, so a PATCH
	// can land while the job is still queued, and at a mutation epoch it
	// halts the run, splices, and stores the patched checkpoint itself
	// (jobMutations.Apply).
	cfg.CheckpointEvery = limits.CheckpointEvery
	if j.resume != nil {
		cfg.CheckpointEvery = j.resume.Every
	}
	if alg == core.Combined || cfg.MaxSeconds > 0 {
		cfg.CheckpointEvery = 0
	}
	if cfg.CheckpointEvery > 0 {
		cfg.CheckpointSink = j.storeCheckpoint
		if spec.ShareGroup == "" {
			j.dyn = dynamic.NewSchedule()
			j.dyn.Telemetry = j.tel
			j.dyn.OnApplied = j.mutationApplied
			cfg.Dynamic = &jobMutations{j: j, sc: j.dyn}
		}
	}
	j.cfg = cfg

	// Every job is traced: the recorder costs nothing until spans are
	// recorded, and its span log grows lazily. A submitted traceparent makes
	// the job's "job" span a child of the caller's span; otherwise the
	// job roots its own trace.
	if spec.Traceparent != "" {
		j.tr = trace.NewFrom(spec.Traceparent, jobTraceRingCap)
	} else {
		j.tr = trace.New(jobTraceRingCap)
	}
	j.rootSpan = j.tr.Start(nil, "job").
		SetAttr("instance", j.instName).
		SetAttr("algorithm", j.alg.String()).
		SetAttr("backend", j.backend).
		SetInt("seed", int64(j.cfg.Seed))
	j.fr = seqlog.New[flight.Sample](flight.DefaultRingCap)

	j.ctx, j.cancel = context.WithCancel(context.Background())
	// The solver picks the trace up from the context: core.RunContext
	// starts its "run" span as a child of the job span.
	j.ctx = trace.NewContext(j.ctx, j.tr, j.rootSpan)
	return j, nil
}

// observe is the telemetry event hook. It runs on solver goroutines while
// the job is running, so everything it touches is guarded by j.mu. The
// typed solver events feed the live front mirror and the flight recorder,
// and every event goes into the job's event log as it is.
func (j *Job) observe(ev telemetry.Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch e := ev.(type) {
	case telemetry.InitEvent:
		obj := solution.Objectives(e.Obj)
		if !j.haveRef {
			j.hvRef, j.haveRef = metrics.HVReference(obj), true
		}
		j.insertPointLocked(FrontPoint{Distance: obj.Distance, Vehicles: obj.Vehicles, Tardiness: obj.Tardiness,
			Feasible: obj.Feasible(), Proc: e.Proc})
	case telemetry.AcceptEvent:
		j.insertPointLocked(FrontPoint{Distance: e.Obj.Distance, Vehicles: e.Obj.Vehicles, Tardiness: e.Obj.Tardiness,
			Feasible: e.Feasible, Proc: e.Proc, Iteration: e.Iteration, Time: e.Time})
	case telemetry.SnapshotEvent:
		// Periodic convergence sample (Config.SampleEvery grid): feed the
		// flight recorder. Only run-deterministic fields go in, so two
		// same-seed sim recordings are bit-identical (see package flight).
		// The first sample after a mutation epoch carries its marker,
		// derived from the run-deterministic mutation log, so identical
		// (seed, mutation log) replays carry identical markers.
		sm := flight.Sample{ConvergenceSample: e.Sample, Marker: j.pendingMarker}
		j.pendingMarker = ""
		c := j.tel.Counters()
		if ops := c.Funnel(); len(ops) > 0 {
			sm.AcceptRates = make(map[string]float64, len(ops))
			for _, op := range ops {
				if p := op.N[telemetry.OpProposed]; p > 0 {
					sm.AcceptRates[op.Name] = float64(op.N[telemetry.OpAccepted]) / float64(p)
				}
			}
		}
		j.fr.Append(sm)
	}
	j.emit(ev)
}

// mutationApplied observes one applied mutation epoch (the schedule's
// OnApplied hook, called from the run's process after the splice and
// before the warm restart): it emits a "mutations" event for the SSE
// stream and arms the flight-recorder marker consumed by the next
// snapshot sample.
func (j *Job) mutationApplied(rep dynamic.Report) {
	j.mu.Lock()
	j.pendingMarker = fmt.Sprintf("mutation@%d", rep.Epoch)
	j.emit(telemetry.Record{Kind: "mutations", Values: map[string]any{
		"job":             j.ID,
		"epoch":           rep.Epoch,
		"applied":         rep.Applied,
		"rejected":        rep.Rejected,
		"orphans":         rep.Orphans,
		"invalidated":     rep.Invalidated,
		"pending_dropped": rep.PendingDropped,
		"splice_seconds":  rep.Seconds,
	}})
	j.mu.Unlock()
}

// insertPointLocked merges one accepted point into the live front mirror,
// keeping it mutually non-dominated. Accepted points come from per-process
// archives, so the union needs this global dominance prune.
func (j *Job) insertPointLocked(pt FrontPoint) {
	if j.firstPoint.IsZero() {
		j.firstPoint = time.Now() // submit-to-first-point SLO mark
	}
	obj := pt.objectives()
	kept := j.front[:0]
	for _, q := range j.front {
		qo := q.objectives()
		if qo.WeaklyDominates(obj) {
			return // already covered; drop the newcomer
		}
		if !obj.Dominates(qo) {
			kept = append(kept, q)
		}
	}
	j.front = append(kept, pt)
}

// emit appends one event to the job's event log, waking its subscribers.
func (j *Job) emit(ev telemetry.Event) {
	j.events.Append(jobEvent{ts: time.Now(), ev: ev})
}

// Status is the JSON body of GET /v1/jobs/{id}: job identity and state,
// live progress counters, and the current front with its quality metrics.
type Status struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Tenant is the owning tenant and Lane its scheduler lane (today
	// always equal; the split leaves room for sub-tenant lanes), so
	// listings group by tenant without a second endpoint. Priority is
	// the post-clamp lane priority.
	Tenant      string     `json:"tenant,omitempty"`
	Lane        string     `json:"lane,omitempty"`
	Priority    int        `json:"priority,omitempty"`
	Instance    string     `json:"instance"`
	Customers   int        `json:"customers"`
	Algorithm   string     `json:"algorithm"`
	Processors  int        `json:"processors"`
	Backend     string     `json:"backend"`
	Seed        uint64     `json:"seed"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	Error       string     `json:"error,omitempty"`

	// GranularK echoes the spec-level search knob that forms the
	// human-readable half of the checkpoint fingerprint: it shapes the
	// trajectory and must match on resume.
	GranularK int `json:"granular_k,omitempty"`

	// The dynamic-mutation counters: epochs applied so far, mutations
	// applied and rejected across them, mutations still queued, and the
	// last applied epoch. All zero for non-dynamic jobs.
	MutationEpochs    int `json:"mutation_epochs,omitempty"`
	MutationsApplied  int `json:"mutations_applied,omitempty"`
	MutationsRejected int `json:"mutations_rejected,omitempty"`
	MutationsPending  int `json:"mutations_pending,omitempty"`
	LastMutationEpoch int `json:"last_mutation_epoch,omitempty"`

	// Evaluations and Iterations are live telemetry counters while the
	// job runs and final totals afterwards.
	Evaluations int64 `json:"evaluations"`
	Iterations  int64 `json:"iterations"`
	// Elapsed is the backend-reported runtime, available once terminal.
	Elapsed float64 `json:"elapsed_seconds,omitempty"`
	// LastEventSeq is the newest event Seq (the SSE resume cursor).
	LastEventSeq int `json:"last_event_seq"`

	Front []FrontPoint `json:"front,omitempty"`
	// Hypervolume of the feasible members of Front against HVRef, and
	// their Spacing; 0 until the front has feasible members.
	Hypervolume float64              `json:"hypervolume,omitempty"`
	Spacing     float64              `json:"spacing,omitempty"`
	HVRef       *solution.Objectives `json:"hv_ref,omitempty"`
}

// Status snapshots the job. The state copy happens under j.mu but the
// front-quality metrics (hypervolume, spacing) are computed on the
// snapshot after the lock is released: for large fronts they are the
// expensive part, and holding j.mu through them would block the solver's
// observe hook on every status poll.
func (j *Job) Status() Status {
	j.mu.Lock()
	st := Status{
		ID:           j.ID,
		State:        j.state,
		Tenant:       j.Spec.Tenant,
		Lane:         j.Spec.Tenant,
		Priority:     j.Spec.Priority,
		Instance:     j.instName,
		Customers:    j.customers,
		Algorithm:    j.alg.String(),
		Processors:   j.cfg.Processors,
		Backend:      j.backend,
		Seed:         j.cfg.Seed,
		GranularK:    j.cfg.GranularK,
		SubmittedAt:  j.submitted,
		Error:        j.errText,
		LastEventSeq: j.events.Last(),
		Front:        append([]FrontPoint(nil), j.front...),
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.result != nil {
		st.Evaluations = int64(j.result.Evaluations)
		st.Iterations = int64(j.iterations)
		st.Elapsed = j.result.Elapsed
	}
	haveRef, ref := j.haveRef, j.hvRef
	haveResult := j.result != nil
	j.mu.Unlock()

	if j.dyn != nil {
		for _, rep := range j.dyn.Reports() {
			st.MutationEpochs++
			st.MutationsApplied += rep.Applied
			st.MutationsRejected += rep.Rejected
			st.LastMutationEpoch = rep.Epoch
		}
		st.MutationsPending = j.dyn.Pending()
	}

	if !haveResult {
		// Live counters are atomics on the immutable per-job telemetry
		// layer; no lock needed.
		st.Evaluations = j.tel.Load(telemetry.Evaluations)
		st.Iterations = j.tel.Load(telemetry.Iterations)
	}
	if haveRef {
		st.HVRef = &ref
		var feas []solution.Objectives
		for _, p := range st.Front {
			if p.Feasible {
				feas = append(feas, p.objectives())
			}
		}
		st.Hypervolume = metrics.Hypervolume(feas, ref)
		st.Spacing = metrics.Spacing(feas)
	}
	return st
}

// Result returns the job's answer as GET /v1/jobs/{id}/result serves it,
// nil before the job is terminal or when it produced none. Canceled jobs
// keep the partial result accumulated before cancellation; a job recovered
// after a restart serves the copy persisted in its data directory.
func (j *Job) Result() *resultio.FrontFile {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// storeCheckpoint makes ck the job's newest checkpoint: it encodes it,
// keeps the envelope GET /v1/jobs/{id}/checkpoint serves, and on a
// durable service installs it at jobs/<id>/ckpt.json, where recovery
// resumes from it. It is the run's checkpoint sink, and
// jobMutations.Apply stores a mutation epoch's patched checkpoint with it.
func (j *Job) storeCheckpoint(ck *core.Checkpoint) error {
	data, err := core.EncodeCheckpoint(ck)
	if err != nil {
		return err
	}
	j.setCheckpoint(ck.Barrier, data)
	if j.svc.jl == nil {
		return nil
	}
	return writeFileSync(filepath.Join(j.svc.jobDir(j.ID), "ckpt.json"), data)
}

// setCheckpoint sets the newest checkpoint envelope.
func (j *Job) setCheckpoint(barrier int, data []byte) {
	j.ckptMu.Lock()
	j.lastCkpt, j.lastBarrier = data, barrier
	j.ckptMu.Unlock()
}

// CheckpointData returns the newest checkpoint envelope and its barrier;
// nil before the first barrier, once the job is terminal, and for
// uncheckpointed jobs.
func (j *Job) CheckpointData() ([]byte, int) {
	j.ckptMu.Lock()
	defer j.ckptMu.Unlock()
	return j.lastCkpt, j.lastBarrier
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// begin moves queued -> running. It returns false when the job was
// canceled while waiting in the queue.
func (j *Job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.queueSpan.End()
	j.emit(telemetry.Record{Kind: "started", Values: map[string]any{"job": j.ID}})
	return true
}

// finish records the run outcome and moves the job to its terminal state:
// failed on error, canceled when the user asked, done otherwise (including
// wall-deadline expiry, which is a budget, not a cancellation).
func (j *Job) finish(res *core.Result, err error) {
	j.mu.Lock()
	state := StateDone
	fields := map[string]any{"job": j.ID}
	switch {
	case err != nil:
		state = StateFailed
		j.errText = err.Error()
		fields["error"] = j.errText
	case j.userCancel:
		state = StateCanceled
	}
	if res != nil {
		j.result = resultio.FromResult(j.instName, res, true)
		j.iterations = res.Iterations
		fields["evaluations"] = res.Evaluations
		fields["iterations"] = res.Iterations
		fields["elapsed_seconds"] = res.Elapsed
		fields["front_size"] = len(res.Front)
	}
	j.terminalLocked(state, fields)
	j.mu.Unlock()
}

// terminalLocked performs the one-and-only transition into a terminal
// state: stamps the finish time, drops what only a run needs, emits the
// lifecycle event and finishes the event log, releases the job's context,
// and tells the service the job is finished.
func (j *Job) terminalLocked(state State, fields map[string]any) {
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.finished = time.Now()
	j.dropRunState()
	j.emit(telemetry.Record{Kind: string(state), Values: fields})
	j.events.Finish()
	j.doneOnce.Do(func() {
		j.cancel()
		// Seal the lifecycle spans: the queue span (idempotent — begin
		// already ended it unless the job was canceled while queued), then
		// the root job span stamped with the terminal state.
		j.queueSpan.End()
		j.rootSpan.SetAttr("state", string(state)).End()
		if j.svc != nil {
			// A job that turned terminal without ever dispatching still
			// occupies its lane slot bookkeeping: pull it out of the
			// scheduler (no-op if a worker already popped it) and settle
			// the recovering gauge. Both are leaf locks under j.mu.
			j.svc.sched.remove(j)
			j.recoveredDispatched()
			if j.Spec.ShareGroup != "" {
				// Seal the share feed. armShares' cleanup does this for
				// jobs that ran, but a share job that turns terminal
				// without ever starting (canceled while queued — a work
				// steal, say) has no cleanup, and an unfinished feed
				// strands sibling subscribers on a silent stream forever.
				j.svc.shares.feed(j.Spec.ShareGroup, j.Spec.ShareShard).Finish()
			}
			// Fold this job's final telemetry into the service-wide
			// Prometheus aggregation and record the SLO observations
			// (lock order j.mu -> met.mu).
			start := j.started
			if start.IsZero() {
				start = j.finished // canceled while queued: all wait, no run
			}
			j.svc.met.complete(string(state), j.Spec.Tenant, start.Sub(j.submitted),
				j.finished.Sub(j.submitted), !j.firstPoint.IsZero(), j.firstPoint.Sub(j.submitted))
			j.svc.met.fold(j.ID, j.tel)
			// Persist before releasing the drain waiter: once jobDone
			// returns, a clean shutdown may proceed, and the result plus
			// its journal record must already be on disk.
			j.svc.persistTerminal(j, state)
			j.svc.exportTrace(j)
			j.svc.jobDone()
		}
	})
}

// dropRunState releases what only a run needs: the instance and the
// checkpoints it would resume from. A terminal job keeps its result and
// the scalars Status reads.
func (j *Job) dropRunState() {
	j.in, j.resume, j.proj = nil, nil, projection{}
	j.setCheckpoint(0, nil)
}

// recoveredDispatched settles the service's recovering gauge for a
// recovery-requeued job, exactly once: called when a worker first picks
// the job up, and from the terminal path for recovered jobs canceled
// while still queued. Atomic — safe under j.mu.
func (j *Job) recoveredDispatched() {
	if j.svc == nil || !j.recoveredPending {
		return
	}
	j.recoveredOnce.Do(func() { j.svc.recovering.Add(-1) })
}

// Cancel requests cancellation. A queued job turns canceled immediately; a
// running one has its context cancelled and reaches the canceled state
// (with its partial result) within one solver iteration. Terminal jobs are
// unaffected. It returns the job's state after the request.
func (j *Job) Cancel() State {
	j.mu.Lock()
	if j.state == StateQueued {
		j.userCancel = true
		j.terminalLocked(StateCanceled, map[string]any{"job": j.ID, "while": "queued"})
		j.mu.Unlock()
		return StateCanceled
	}
	if j.state == StateRunning {
		j.userCancel = true
		state := j.state
		j.mu.Unlock()
		j.cancel()
		return state
	}
	state := j.state
	j.mu.Unlock()
	return state
}
