// Package service implements the solver-as-a-service daemon: a bounded
// job queue feeding a fixed worker pool that runs TSMO searches
// (internal/core) and streams their archive updates to subscribers. The
// HTTP surface lives in http.go and is served by cmd/tsmod; the package
// is equally usable embedded (see the e2e tests, which run it in-process).
//
// Design points, in ISSUE order: submissions beyond the queue bound are
// rejected with ErrQueueFull so the transport can answer 429 with a
// Retry-After hint (backpressure instead of unbounded buffering); each
// job gets its own context, cancelled by DELETE or the per-job wall
// deadline, which stops the search within one iteration via
// core.RunContext; Drain stops intake, lets queued and running jobs
// finish, and force-cancels whatever remains when its grace context
// expires — the SIGTERM path of cmd/tsmod.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/resultio"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// Submission failure modes, mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull: the global queue bound is reached (HTTP 429).
	ErrQueueFull = errors.New("service: job queue is full")
	// ErrTenantQueueFull: the submitting tenant's MaxQueued quota is
	// exhausted while the global queue still has room (HTTP 429).
	ErrTenantQueueFull = errors.New("service: tenant queue quota exhausted")
	// ErrRateLimited: the tenant's submission or mutation token bucket
	// is empty (HTTP 429). Usually wrapped in a QuotaError carrying the
	// exact Retry-After hint.
	ErrRateLimited = errors.New("service: tenant rate limit exceeded")
	// ErrLoadShed: the service is shedding load after a WAL write
	// failure (or an operator override); new work is refused, running
	// jobs are never touched (HTTP 503).
	ErrLoadShed = errors.New("service: shedding load, not accepting new work")
	// ErrMutationBudget: the job's lifetime mutation budget — the hard
	// backstop behind the mutate token bucket — is spent (HTTP 429).
	ErrMutationBudget = errors.New("service: job mutation budget exhausted")
	// ErrDraining: the service no longer accepts jobs (HTTP 503).
	ErrDraining = errors.New("service: draining, not accepting jobs")
	// ErrNotFound: no such job id (HTTP 404).
	ErrNotFound = errors.New("service: no such job")
	// ErrStorage: the durable journal rejected a write (HTTP 500).
	ErrStorage = errors.New("service: durable storage failure")
)

// QuotaError wraps an admission refusal with the precise backoff its
// token bucket computed; the HTTP layer renders it as Retry-After.
type QuotaError struct {
	Err   error
	After time.Duration
}

func (e *QuotaError) Error() string { return e.Err.Error() }
func (e *QuotaError) Unwrap() error { return e.Err }

// Config parameterizes a Service. The zero value is usable: every field
// has a default applied by New.
type Config struct {
	// Workers is the worker-pool size — the number of jobs solved
	// concurrently. Default 2.
	Workers int
	// QueueDepth bounds the jobs waiting beyond the running ones;
	// submissions past the bound get ErrQueueFull. Default 8.
	QueueDepth int
	// RetainJobs caps how many terminal jobs are kept for status and
	// result queries; the oldest are evicted first. Default 64.
	RetainJobs int
	// MaxEvaluations caps the per-job evaluation budget. Default
	// 1,000,000; <0 disables the cap.
	MaxEvaluations int
	// MaxProcessors caps the per-job process count. Default 16.
	MaxProcessors int
	// MaxCustomers caps the instance size. Default 1000.
	MaxCustomers int
	// MaxWallSeconds caps (and, when a job asks for none, defaults) the
	// per-job real-time deadline. 0 means no deadline.
	MaxWallSeconds float64
	// RetryAfter is the backoff hint attached to 429/503 responses.
	// Default 1s.
	RetryAfter time.Duration
	// DataDir, when set, makes the service durable: submissions are
	// journaled before they are acknowledged, running searches write
	// periodic checkpoints, results are persisted, and Open recovers all
	// of it after a crash or restart. Empty means in-memory only.
	DataDir string
	// CheckpointEvery is the search-snapshot interval in master
	// iterations for durable jobs. Default DefaultCheckpointEvery when
	// DataDir is set; ignored otherwise.
	CheckpointEvery int
	// ShareDial, when non-nil, lets cluster-share jobs (JobSpec.ShareGroup
	// with ShareShards > 1) gather sibling-shard batches: it is called
	// once per such job, from the worker goroutine, before the search
	// starts. internal/cluster provides the SSE-over-coordinator dialer;
	// tests inject in-process ones. nil rejects multi-shard submissions.
	// tel is the job's telemetry layer: the dialer records per-peer share
	// counters there (Telemetry.Peers).
	ShareDial func(group string, shard, shards int, tel *telemetry.Telemetry) (ShareGatherer, error)
	// Version is reported by GET /v1/healthz (see internal/buildinfo).
	Version string
	// Logger, when non-nil, receives job lifecycle log lines.
	Logger *slog.Logger
	// TraceDir, when set, exports each terminal job's span recording as
	// OTLP/JSON to <TraceDir>/<job-id>.trace.json.
	TraceDir string
	// TraceCollector, when set, POSTs each terminal job's spans to this
	// OTLP/HTTP endpoint (e.g. http://collector:4318/v1/traces). Export
	// failures are logged, never fatal.
	TraceCollector string
	// Tenants resolves API keys to tenants and enforces their quotas
	// and rate limits. nil gets a registry holding only the unlimited
	// anonymous tenant — the single-tenant behavior of older daemons.
	Tenants *tenant.Registry
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 64
	}
	if c.MaxEvaluations == 0 {
		c.MaxEvaluations = 1_000_000
	}
	if c.MaxProcessors == 0 {
		c.MaxProcessors = 16
	}
	if c.MaxCustomers == 0 {
		c.MaxCustomers = 1000
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.DataDir != "" && c.CheckpointEvery <= 0 {
		c.CheckpointEvery = DefaultCheckpointEvery
	}
	if c.Tenants == nil {
		c.Tenants = tenant.NewRegistry(nil)
	}
}

// DefaultCheckpointEvery is the snapshot interval durable services use
// when Config.CheckpointEvery is unset. A snapshot costs a state capture
// plus an encode+checksum+fsync, so the interval trades recovery
// granularity against steady-state overhead; 500 master iterations keeps
// the overhead under 2% (the BenchmarkRunCheckpointOff/On pair in
// internal/core; scripts/tsmobench reports the snapshot's cost as
// core.ckpt_encode_ms) while bounding lost work on a crash to well under a
// second of search.
const DefaultCheckpointEvery = 500

// Service is the job-queue daemon. Create with New, expose with Handler,
// stop with Drain (graceful) or Close (abort).
type Service struct {
	cfg      Config
	sched    *scheduler
	stop     chan struct{}
	stopOnce sync.Once
	workerWG sync.WaitGroup
	jobWG    sync.WaitGroup

	// recovering counts requeued recovery jobs a worker has not yet
	// picked up; readiness stays false until it drains to zero. Atomic
	// because the last decrement may happen under j.mu (a recovered job
	// canceled while queued), where s.mu must not be taken.
	recovering atomic.Int64

	// jl is the write-ahead job journal, nil for in-memory services;
	// torn counts unreadable records dropped while replaying it.
	jl   *journal
	torn int

	// met backs GET /metrics: lifecycle counters, SLO histograms, and the
	// monotone cross-job aggregation of solver telemetry.
	met *svcMetrics

	// shares registers the node's outbound share feeds, one per
	// cluster-share job, served on GET /v1/shares/{group}/{shard}.
	shares *shareHub

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string // submission order, for listing and eviction
	idem      map[string]string
	nextID    int
	draining  bool
	busy      int
	recovered int
	requeued  int
	// Load-shed state: shedUntil is armed by WAL write failures (the
	// disk gets one RetryAfter window of quiet before the next
	// submission probes it again); shedManual is the operator override.
	shedUntil  time.Time
	shedManual bool
}

// New starts an in-memory Service with cfg's worker pool. For a durable
// service (cfg.DataDir set) use Open, which can fail on storage errors and
// performs crash recovery; New panics if handed a durable configuration
// whose storage is unusable.
func New(cfg Config) *Service {
	s, err := Open(cfg)
	if err != nil {
		panic("service.New: " + err.Error())
	}
	return s
}

// Submit validates and enqueues a job for the anonymous tenant — the
// single-tenant API of older embedders. See SubmitAs.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	return s.SubmitAs(tenant.Anonymous, spec)
}

// SubmitAs validates and enqueues a job on behalf of a tenant.
// Validation failures return the underlying error (HTTP 400); quota
// refusals return ErrQueueFull, ErrTenantQueueFull or ErrRateLimited
// (HTTP 429, the latter wrapped in a QuotaError carrying the bucket's
// Retry-After), and an unavailable service ErrDraining or ErrLoadShed
// (HTTP 503). A spec carrying an idempotency key the service has
// already accepted returns the original job unchanged, so clients retry
// submissions safely — idempotent replays consume no rate tokens.
func (s *Service) SubmitAs(tn string, spec JobSpec) (*Job, error) {
	pol := s.cfg.Tenants.Policy(tn)
	spec.Tenant = tn
	spec.Priority = pol.ClampPriority(spec.Priority)
	j, err := newJob(spec, &s.cfg)
	if err != nil {
		s.met.reject("invalid")
		return nil, err
	}
	spec = j.Spec // newJob normalizes the spec copy it retains
	j.svc = s

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		j.cancel()
		s.met.reject("draining")
		return nil, ErrDraining
	}
	if key := spec.IdempotencyKey; key != "" {
		if dup, ok := s.jobs[s.idem[key]]; ok {
			s.mu.Unlock()
			j.cancel()
			return dup, nil
		}
	}
	if s.sheddingLocked() {
		s.mu.Unlock()
		j.cancel()
		s.met.rejectTenant(tn, "load_shed")
		return nil, &QuotaError{Err: ErrLoadShed, After: s.cfg.RetryAfter}
	}
	if ok, retry := s.cfg.Tenants.TakeSubmit(tn); !ok {
		s.mu.Unlock()
		j.cancel()
		s.met.rejectTenant(tn, "rate_limited")
		return nil, &QuotaError{Err: ErrRateLimited, After: retry}
	}
	// Quota checks run before journaling, so a rejected submission
	// leaves no journal record behind. The global bound caps total
	// backlog; the per-tenant bound isolates co-tenants from a flood
	// long before the global bound is felt.
	if s.sched.queuedTotal() >= s.cfg.QueueDepth {
		s.mu.Unlock()
		j.cancel()
		s.met.rejectTenant(tn, "queue_full")
		return nil, ErrQueueFull
	}
	if pol.MaxQueued > 0 && s.sched.laneQueued(tn) >= pol.MaxQueued {
		s.mu.Unlock()
		j.cancel()
		s.met.rejectTenant(tn, "tenant_queue_full")
		return nil, ErrTenantQueueFull
	}
	s.nextID++
	j.ID = fmt.Sprintf("j%06d", s.nextID)
	j.submitted = time.Now()
	if s.jl != nil {
		// Write-ahead: the job exists once its submit record is durable;
		// only then is it acknowledged or runnable. A failed write arms
		// load-shed mode: the disk gets one RetryAfter window of quiet,
		// then the next submission probes it again.
		err := os.MkdirAll(s.jobDir(j.ID), 0o755)
		if err == nil {
			err = s.jl.append(journalRecord{Type: "submit", Job: j.ID, Spec: &spec})
		}
		if err != nil {
			s.shedUntil = time.Now().Add(s.cfg.RetryAfter)
			s.mu.Unlock()
			j.cancel()
			s.met.rejectTenant(tn, "storage")
			return nil, fmt.Errorf("%w: %v", ErrStorage, err)
		}
	}
	// The queue span opens once the job is durably accepted; begin() ends
	// it when a worker picks the job up (terminalLocked covers jobs
	// canceled while still queued). Safe without j.mu: the job becomes
	// reachable only via the registration below.
	j.queueSpan = j.tr.Start(j.rootSpan, "queue")
	// Register the job completely before it becomes runnable: once the
	// channel send succeeds a worker may dequeue it immediately, so the
	// send must happen-after the ID/submitted writes, the "queued" event,
	// and jobWG.Add — otherwise a fast job could observe half-built state
	// or call jobWG.Done before the Add.
	j.mu.Lock()
	j.appendEventLocked("queued", map[string]any{"job": j.ID, "instance": j.instName,
		"algorithm": j.alg.String(), "tenant": tn, "lane": tn})
	j.mu.Unlock()
	s.jobWG.Add(1)
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	if key := spec.IdempotencyKey; key != "" {
		s.idem[key] = j.ID
	}
	s.sched.enqueue(j, pol.Weight, pol.MaxConcurrent)
	s.evictLocked()
	s.mu.Unlock()
	s.met.submitTenant(tn)
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("job queued", "job", j.ID, "instance", j.instName, "tenant", tn,
			"algorithm", j.alg.String(), "processors", j.cfg.Processors, "backend", j.backend)
	}
	return j, nil
}

// sheddingLocked reports whether the service is in load-shed mode.
// Callers hold s.mu.
func (s *Service) sheddingLocked() bool {
	return s.shedManual || time.Now().Before(s.shedUntil)
}

// shedding is sheddingLocked for callers not holding s.mu.
func (s *Service) shedding() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sheddingLocked()
}

// SetShed toggles the operator load-shed override: while on, new
// submissions and mutations are refused with 503 + Retry-After, running
// jobs are untouched, and readiness reports false.
func (s *Service) SetShed(on bool) {
	s.mu.Lock()
	s.shedManual = on
	s.mu.Unlock()
}

// armShed enters load-shed mode for one RetryAfter window after a WAL
// write failure observed off the submission path (a mutation commit,
// say). The next submission after the window probes the disk again.
func (s *Service) armShed() {
	s.mu.Lock()
	s.shedUntil = time.Now().Add(s.cfg.RetryAfter)
	s.mu.Unlock()
}

// Ready reports whether the service should receive new work, with the
// reasons when it should not — the GET /v1/readyz split from liveness:
// a draining, recovering, or load-shedding daemon is alive (healthz
// still answers) but not ready.
func (s *Service) Ready() (bool, []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var reasons []string
	if s.draining {
		reasons = append(reasons, "draining")
	}
	if s.recovering.Load() > 0 {
		reasons = append(reasons, "recovering")
	}
	if s.sheddingLocked() {
		reasons = append(reasons, "load_shed")
	}
	return len(reasons) == 0, reasons
}

// evictLocked drops terminal jobs beyond the retention cap, per-tenant
// oldest-first: each eviction comes from the tenant retaining the most
// terminal jobs (ties to the lexicographically smaller name), so one
// tenant's churn can never flush a co-tenant's results out of the
// retention window. Queued and running jobs are never evicted.
func (s *Service) evictLocked() {
	terminal := 0
	perTenant := make(map[string]int)
	for _, id := range s.order {
		j := s.jobs[id]
		if j.State().Terminal() {
			terminal++
			perTenant[j.Spec.Tenant]++
		}
	}
	for terminal > s.cfg.RetainJobs {
		victim := ""
		for tn, n := range perTenant {
			if victim == "" || n > perTenant[victim] || (n == perTenant[victim] && tn < victim) {
				victim = tn
			}
		}
		for i, id := range s.order {
			j := s.jobs[id]
			if j.Spec.Tenant != victim || !j.State().Terminal() {
				continue
			}
			s.order = append(s.order[:i], s.order[i+1:]...)
			s.dropJobLocked(id, j)
			break
		}
		perTenant[victim]--
		terminal--
	}
}

// dropJobLocked forgets one evicted terminal job: maps, idempotency
// key, journal evict record, on-disk artifacts, share feed, metrics
// marker. Callers hold s.mu and have already removed id from s.order.
func (s *Service) dropJobLocked(id string, j *Job) {
	delete(s.jobs, id)
	if key := j.Spec.IdempotencyKey; key != "" && s.idem[key] == id {
		delete(s.idem, key)
	}
	if s.jl != nil {
		if err := s.jl.append(journalRecord{Type: "evict", Job: id}); err != nil {
			s.logWarn("journal: evict record", "job", id, "error", err)
		}
		if err := os.RemoveAll(s.jobDir(id)); err != nil {
			s.logWarn("evict: removing job dir", "job", id, "error", err)
		}
	}
	if j.Spec.ShareGroup != "" {
		s.shares.drop(j.Spec.ShareGroup, j.Spec.ShareShard)
	}
	s.met.forget(id)
}

// Job looks a job up by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns all retained jobs in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel cancels the identified job (see Job.Cancel for semantics).
func (s *Service) Cancel(id string) (*Job, error) {
	j, ok := s.Job(id)
	if !ok {
		return nil, ErrNotFound
	}
	j.Cancel()
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("job cancel requested", "job", id)
	}
	return j, nil
}

// jobDone is called exactly once per job as it reaches a terminal state
// (from Job.terminalLocked, possibly holding the job's lock — it must not
// take s.mu): it releases the drain waiter.
func (s *Service) jobDone() {
	s.jobWG.Done()
}

func (s *Service) worker() {
	defer s.workerWG.Done()
	for {
		j := s.sched.next(s.stop)
		if j == nil {
			return
		}
		s.runJob(j)
		// Return the lane's concurrency slot — a capped co-lane job may
		// now be dispatchable.
		s.sched.release(j.Spec.Tenant)
	}
}

// runJob executes one job on the calling worker. Jobs canceled while
// queued are skipped (begin refuses them); jobs whose client deadline
// already passed are shed as failed without running. The search runs
// under the job's context, bounded by the wall deadline and the
// remaining client deadline, on a fresh backend instance — a
// deterministic simulator per job, so equal (instance, seed, config)
// submissions yield bit-identical archives.
func (s *Service) runJob(j *Job) {
	j.recoveredDispatched()
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		s.met.rejectTenant(j.Spec.Tenant, "deadline")
		j.finish(nil, fmt.Errorf("deadline exceeded after %.1fs in queue; job shed unstarted", j.Spec.DeadlineSeconds))
		return
	}
	if !j.begin() {
		return
	}
	s.mu.Lock()
	s.busy++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.busy--
		s.mu.Unlock()
	}()
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("job started", "job", j.ID, "resume", j.resume != nil)
	}
	if s.jl != nil {
		if err := s.jl.append(journalRecord{Type: "start", Job: j.ID}); err != nil {
			s.logWarn("journal: start record", "job", j.ID, "error", err)
		}
	}
	s.armCheckpoints(j)
	if done, err := s.armShares(j); err != nil {
		j.finish(nil, err)
		return
	} else if done != nil {
		defer done()
	}

	// Expose the running job's instruments on /debug/vars; with several
	// workers the variable tracks the most recently started job.
	telemetry.Publish(j.tel)

	ctx := j.ctx
	cancel := context.CancelFunc(func() {})
	if j.wall > 0 {
		ctx, cancel = context.WithTimeout(ctx, j.wall)
	}
	defer cancel()
	if !j.deadline.IsZero() {
		// Deadline propagation: the client's submit-time deadline bounds
		// the searcher context, stopping the run (keeping its partial
		// front) within one iteration of expiry.
		dctx, dcancel := context.WithDeadline(ctx, j.deadline)
		defer dcancel()
		ctx = dctx
	}

	var rt deme.Runtime
	if j.backend == "goroutine" {
		rt = deme.NewGoroutine()
	} else {
		rt = deme.NewSim(deme.Origin3800())
	}
	var res *core.Result
	var err error
	if j.resume != nil {
		res, err = core.ResumeContext(ctx, j.resume, j.in, j.cfg, rt)
	} else {
		res, err = core.RunContext(ctx, j.alg, j.in, j.cfg, rt)
	}
	j.finish(res, err)
	if s.cfg.Logger != nil {
		st := j.Status()
		s.cfg.Logger.Info("job finished", "job", j.ID, "state", string(st.State),
			"evaluations", st.Evaluations, "front", len(st.Front))
	}
}

// armCheckpoints wires a job's search to its checkpoint sinks. Every
// checkpointed job — durable or not — keeps the latest envelope in memory,
// where GET /v1/jobs/{id}/checkpoint serves it to the cluster coordinator
// as a migration artifact; durable jobs additionally install each snapshot
// atomically at jobs/<id>/ckpt.json and point a journal record at it, so
// recovery only ever resumes from a checkpoint that fully reached disk.
// Runs that cannot be checkpointed deterministically — the combined
// variant, or an in-run MaxSeconds budget (both rejected by the solver's
// own validation) — simply run without snapshots and restart from scratch
// after a crash.
func (s *Service) armCheckpoints(j *Job) {
	every := s.cfg.CheckpointEvery
	if j.resume != nil {
		// A resumed run must keep the interval it was cut at: the barrier
		// cadence is part of the deterministic trajectory.
		every = j.resume.Every
	}
	if every <= 0 || j.alg == core.Combined || j.cfg.MaxSeconds > 0 {
		return
	}
	j.cfg.CheckpointEvery = every
	if j.dyn != nil {
		// Live instance mutations ride the same barriers: the schedule
		// halts the run at a mutation epoch, splices, and persists the
		// patched checkpoint itself (jobMutations.Apply) — the core skips
		// the sink at halt barriers, so a mutation epoch's checkpoint only
		// ever reaches disk in its patched form.
		j.cfg.Dynamic = &jobMutations{j: j, sc: j.dyn}
	}
	path := filepath.Join(s.jobDir(j.ID), "ckpt.json")
	j.cfg.CheckpointSink = func(ck *core.Checkpoint) error {
		data, err := core.EncodeCheckpoint(ck)
		if err != nil {
			return err
		}
		j.setCheckpoint(ck.Barrier, data)
		if s.jl == nil {
			return nil
		}
		if err := writeFileSync(path, data); err != nil {
			return err
		}
		return s.jl.append(journalRecord{Type: "ckpt", Job: j.ID, Barrier: ck.Barrier,
			Note: fingerprintNote(ck.GranularK, ck.EvalWorkers)})
	}
}

// armShares wires a cluster-share job to its outbound feed and — for
// multi-shard groups — dials the sibling gatherer. The returned cleanup
// marks the feed done (no further epochs from this shard) and closes the
// gatherer; it must run after the search returns. A dial failure fails the
// job before it consumes any budget.
func (s *Service) armShares(j *Job) (func(), error) {
	if j.Spec.ShareGroup == "" {
		return nil, nil
	}
	feed := s.shares.feed(j.Spec.ShareGroup, j.Spec.ShareShard)
	var g ShareGatherer
	if j.Spec.ShareShards > 1 {
		var err error
		g, err = s.cfg.ShareDial(j.Spec.ShareGroup, j.Spec.ShareShard, j.Spec.ShareShards, j.tel)
		if err != nil {
			return nil, fmt.Errorf("dialing share group %s: %w", j.Spec.ShareGroup, err)
		}
	}
	j.cfg.Share = &jobExchange{shard: j.Spec.ShareShard, feed: feed, gather: g}
	return func() {
		feed.finish()
		if g != nil {
			g.Close()
		}
	}, nil
}

// persistTerminal durably records a job's terminal transition: the result
// file first (write-fsync-rename), then the journal record that marks it
// authoritative. Called exactly once per job from terminalLocked, holding
// j.mu but never s.mu; the journal serializes itself.
func (s *Service) persistTerminal(j *Job, state State) {
	if s.jl == nil {
		return
	}
	if j.result != nil {
		data, err := json.Marshal(resultio.FromResult(j.instName, j.result, true))
		if err == nil {
			err = writeFileSync(filepath.Join(s.jobDir(j.ID), "result.json"), data)
		}
		if err != nil {
			s.logWarn("persisting result", "job", j.ID, "error", err)
		}
	}
	if err := s.jl.append(journalRecord{Type: string(state), Job: j.ID, Error: j.errText}); err != nil {
		s.logWarn("journal: terminal record", "job", j.ID, "state", string(state), "error", err)
	}
}

// exportTrace ships a terminal job's span recording to the configured
// sinks: an OTLP/JSON file under Config.TraceDir and/or an OTLP/HTTP
// collector. Called exactly once per job from terminalLocked (the job's
// doneOnce), after the lifecycle spans are sealed; failures are logged
// and never affect the job's outcome.
func (s *Service) exportTrace(j *Job) {
	if s.cfg.TraceDir == "" && s.cfg.TraceCollector == "" {
		return
	}
	if s.cfg.TraceDir != "" {
		err := os.MkdirAll(s.cfg.TraceDir, 0o755)
		if err == nil {
			err = trace.ExportFile(filepath.Join(s.cfg.TraceDir, j.ID+".trace.json"), "tsmod", j.tr)
		}
		if err != nil {
			s.logWarn("exporting trace file", "job", j.ID, "error", err)
		}
	}
	if s.cfg.TraceCollector != "" {
		if err := trace.PostOTLP(s.cfg.TraceCollector, "tsmod", nil, j.tr); err != nil {
			s.logWarn("posting trace to collector", "job", j.ID, "error", err)
		}
	}
}

// Drain performs a graceful shutdown: stop accepting submissions, let
// queued and running jobs run to completion, and — if ctx expires first —
// cancel everything still alive and wait for the partial results to be
// recorded. The worker pool is stopped before returning.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-ctx.Done():
		for _, j := range s.Jobs() {
			j.Cancel()
		}
		<-finished
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.workerWG.Wait()
	if err := s.jl.Close(); err != nil {
		s.logWarn("closing journal", "error", err)
	}
	return nil
}

// Close aborts the service: every job is cancelled and the worker pool is
// stopped once their partial results are recorded.
func (s *Service) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	for _, j := range s.Jobs() {
		j.Cancel()
	}
	s.jobWG.Wait()
	s.stopOnce.Do(func() { close(s.stop) })
	s.workerWG.Wait()
	if err := s.jl.Close(); err != nil {
		s.logWarn("closing journal", "error", err)
	}
}

// Stats is the health snapshot reported by GET /v1/healthz.
type Stats struct {
	// Status is "ok" while accepting jobs, "draining" afterwards.
	Status  string `json:"status"`
	Version string `json:"version,omitempty"`
	Workers int    `json:"workers"`
	// Busy is the number of workers currently running a job.
	Busy int `json:"busy"`
	// QueueLen is the waiting-job total across tenant lanes; QueueCap
	// the global admission bound (per-tenant quotas may bind sooner).
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	// Jobs counts retained jobs by state.
	Jobs map[State]int `json:"jobs"`
	// Tenants is the per-lane occupancy: queued and running jobs plus
	// the fair-share weight, keyed by tenant. The cluster coordinator
	// folds these into its tenant-aware routing.
	Tenants map[string]LaneStat `json:"tenants,omitempty"`
	// Shedding reports active load-shed mode (readiness is false).
	Shedding bool `json:"shedding,omitempty"`
	// Durable reports whether the service journals to a data directory.
	Durable bool `json:"durable,omitempty"`
	// Recovered and Requeued count jobs brought back by the last
	// recovery: terminal jobs re-served from disk, and incomplete jobs
	// put back on the queue. Recovering counts requeued jobs no worker
	// has picked up yet (readiness is false until zero). TornRecords
	// counts journal records dropped as unreadable during that replay.
	Recovered   int `json:"recovered,omitempty"`
	Requeued    int `json:"requeued,omitempty"`
	Recovering  int `json:"recovering,omitempty"`
	TornRecords int `json:"torn_records,omitempty"`
}

// Stats snapshots the service.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Status:      "ok",
		Version:     s.cfg.Version,
		Workers:     s.cfg.Workers,
		Busy:        s.busy,
		QueueLen:    s.sched.queuedTotal(),
		QueueCap:    s.cfg.QueueDepth,
		Jobs:        make(map[State]int),
		Tenants:     s.sched.stats(),
		Shedding:    s.sheddingLocked(),
		Durable:     s.jl != nil,
		Recovered:   s.recovered,
		Requeued:    s.requeued,
		Recovering:  int(s.recovering.Load()),
		TornRecords: s.torn,
	}
	if s.draining {
		st.Status = "draining"
	}
	for _, id := range s.order {
		st.Jobs[s.jobs[id].State()]++
	}
	return st
}

// RetryAfter returns the configured backoff hint.
func (s *Service) RetryAfter() time.Duration { return s.cfg.RetryAfter }
