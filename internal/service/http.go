package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/flight"
	"repro/internal/seqlog"
	"repro/internal/sse"
	"repro/internal/strictjson"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/trace"
)

// maxBodyBytes bounds a submission body; inline Solomon text for the
// largest admissible instances fits comfortably.
const maxBodyBytes = 8 << 20

// Handler returns the service's HTTP API:
//
//	POST   /v1/jobs             submit a job (202; 429 full, 503 draining)
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        status + live front + quality metrics
//	GET    /v1/jobs/{id}/events SSE stream of job events (Last-Event-ID resume)
//	GET    /v1/jobs/{id}/result final front as a resultio.FrontFile (409 early)
//	PATCH  /v1/jobs/{id}/instance mutate the live instance (409 terminal/static)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/jobs/{id}/flight flight recording (periodic convergence samples)
//	GET    /v1/jobs/{id}/trace  recorded spans as OTLP/JSON
//	GET    /v1/jobs/{id}/checkpoint latest checkpoint envelope (404 before the
//	                            first barrier and once the job is terminal)
//	GET    /v1/healthz          liveness: process health, version, occupancy
//	GET    /v1/readyz           readiness: 503 while draining/recovering/shedding
//	GET    /v1/tenants          per-tenant policies, lane occupancy, counters
//	GET    /metrics             Prometheus text-format exposition
//	GET    /telemetry           per-job instrument snapshots
//	/debug/pprof/*, /debug/vars from internal/telemetry
//
// Requests carrying an Authorization header are resolved to their tenant
// before routing; an unknown bearer token is refused with 401 everywhere.
// Requests without credentials are the anonymous tenant.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("PATCH /v1/jobs/{id}/instance", s.handleMutate)
	mux.HandleFunc("GET /v1/jobs/{id}/flight", s.handleFlight)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/shares/{group}/{shard}", s.handleShares)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/readyz", s.handleReadyz)
	mux.HandleFunc("GET /readyz", s.handleReadyz) // kubelet-style alias
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /telemetry", s.handleTelemetry)
	telemetry.RegisterDebug(mux)
	return s.withTenant(mux)
}

// tenantKey carries the resolved tenant name in the request context.
type tenantKey struct{}

// withTenant resolves the Authorization header to a tenant once per
// request, before routing. Unknown credentials are refused here so no
// handler ever sees them; absent credentials resolve to the anonymous
// tenant, keeping every pre-multi-tenant client working unchanged.
func (s *Service) withTenant(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tn, err := s.cfg.Tenants.Resolve(r.Header.Get("Authorization"))
		if err != nil {
			s.met.reject("unauthorized")
			writeError(w, http.StatusUnauthorized, err)
			return
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), tenantKey{}, tn)))
	})
}

// tenantFrom reads the tenant the middleware resolved; anonymous when
// the handler is exercised without it (direct embedder tests).
func tenantFrom(ctx context.Context) string {
	if tn, ok := ctx.Value(tenantKey{}).(string); ok {
		return tn
	}
	return tenant.Anonymous
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// SubmitResponse is the 202 body of POST /v1/jobs.
type SubmitResponse struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	StatusURL string `json:"status_url"`
	EventsURL string `json:"events_url"`
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	accepted := time.Now()
	var spec JobSpec
	if err := strictjson.Decode(http.MaxBytesReader(w, r.Body, maxBodyBytes), &spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
		return
	}
	// W3C trace context: the request header wins over a body field, so
	// proxies that inject traceparent headers correlate transparently.
	if tp := r.Header.Get("traceparent"); tp != "" {
		spec.Traceparent = tp
	}
	j, err := s.SubmitAs(tenantFrom(r.Context()), spec)
	if err != nil {
		if s.writeAdmissionError(w, err) {
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The accept span covers decode+validate+enqueue, backdated to
	// handler entry; the response echoes the job's traceparent so callers
	// without their own trace can still fetch and correlate the export.
	j.tr.StartAt(j.rootSpan, "accept", accepted).End()
	w.Header().Set("traceparent", j.tr.Traceparent(j.rootSpan))
	writeJSON(w, http.StatusAccepted, SubmitResponse{
		ID:        j.ID,
		State:     j.State(),
		StatusURL: "/v1/jobs/" + j.ID,
		EventsURL: "/v1/jobs/" + j.ID + "/events",
	})
}

// retryAfterSeconds renders a Retry-After header value, at least 1 second
// (the header has whole-second granularity).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeAdmissionError maps the shared admission failure modes — quota
// refusals to 429, unavailability to 503, storage to 500, all
// backpressure responses carrying Retry-After (a QuotaError's exact
// bucket hint when present, the configured default otherwise). Reports
// false for errors it does not own (the caller maps those).
func (s *Service) writeAdmissionError(w http.ResponseWriter, err error) bool {
	retry := s.cfg.RetryAfter
	var qe *QuotaError
	if errors.As(err, &qe) && qe.After > 0 {
		retry = qe.After
	}
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTenantQueueFull),
		errors.Is(err, ErrRateLimited), errors.Is(err, ErrMutationBudget):
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrDraining), errors.Is(err, ErrLoadShed):
		w.Header().Set("Retry-After", retryAfterSeconds(retry))
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrStorage):
		writeError(w, http.StatusInternalServerError, err)
	default:
		return false
	}
	return true
}

func (s *Service) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	out := make([]Status, 0, len(jobs))
	for _, j := range jobs {
		st := j.Status()
		st.Front = nil // keep the listing small; fronts live on the job URL
		out = append(out, st)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Service) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, ErrNotFound)
	}
	return j, ok
}

func (s *Service) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.Cancel(j.ID) //nolint:errcheck // lookup already succeeded
	writeJSON(w, http.StatusOK, map[string]any{"id": j.ID, "state": j.State()})
}

func (s *Service) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !j.State().Terminal() {
		// The job will finish; Retry-After tells polling clients (tsmoctl
		// submit -wait, the cluster coordinator) when to ask again.
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; the result is available once it is terminal", j.ID, j.State()))
		return
	}
	ff := j.Result()
	if ff == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %s produced no result", j.ID))
		return
	}
	writeJSON(w, http.StatusOK, ff)
}

// MutateRequest is the body of PATCH /v1/jobs/{id}/instance: either one
// mutation inline (the dynamic.Mutation fields at the top level) or a
// batch in Mutations. Epoch pins the batch to an explicit checkpoint
// barrier — timed replay scripts use it to make a scenario
// reproducible; 0 lets the service pick the next barrier the run has
// not yet reached. A missing version defaults to the current one.
type MutateRequest struct {
	dynamic.Mutation
	Epoch     int                `json:"epoch,omitempty"`
	Mutations []dynamic.Mutation `json:"mutations,omitempty"`
}

// MutateResponse is the 200 body of PATCH /v1/jobs/{id}/instance.
type MutateResponse struct {
	ID string `json:"id"`
	// Epoch is the checkpoint barrier the batch was pinned to; the run
	// halts there, splices, and warm-restarts.
	Epoch     int `json:"epoch"`
	Mutations int `json:"mutations"`
}

// decodeMutateRequest decodes a PATCH body and returns it with the batch
// it carries — the inline mutation or the Mutations, never both — each
// missing version defaulted to the current one.
func decodeMutateRequest(body io.Reader) (MutateRequest, []dynamic.Mutation, error) {
	var req MutateRequest
	if err := strictjson.Decode(body, &req); err != nil {
		return req, nil, fmt.Errorf("decoding mutation request: %w", err)
	}
	muts := req.Mutations
	if req.Mutation.Op != "" {
		if len(muts) > 0 {
			return req, nil, errors.New("provide either one inline mutation or a mutations batch, not both")
		}
		muts = []dynamic.Mutation{req.Mutation}
	}
	if len(muts) == 0 {
		return req, nil, errors.New("empty mutation batch")
	}
	for i := range muts {
		if muts[i].Version == 0 {
			muts[i].Version = dynamic.Version
		}
	}
	return req, muts, nil
}

func (s *Service) handleMutate(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	req, muts, err := decodeMutateRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	epoch, err := s.MutateAs(tenantFrom(r.Context()), j.ID, req.Epoch, muts)
	switch {
	case errors.Is(err, ErrTerminal), errors.Is(err, ErrNotDynamic):
		writeError(w, http.StatusConflict, err)
		return
	case errors.Is(err, dynamic.ErrEpochPassed):
		writeError(w, http.StatusConflict, err)
		return
	case err != nil:
		if s.writeAdmissionError(w, err) {
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, MutateResponse{ID: j.ID, Epoch: epoch, Mutations: len(muts)})
}

// handleHealthz is liveness: the process is up and answering. It always
// returns 200 — a draining or shedding daemon is alive. Routing
// decisions belong on /v1/readyz.
func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// ReadyResponse is the body of GET /v1/readyz.
type ReadyResponse struct {
	Ready bool `json:"ready"`
	// Reasons lists why the service refuses new work: "draining",
	// "recovering", "load_shed". Empty when ready.
	Reasons []string `json:"reasons,omitempty"`
}

// handleReadyz is readiness: 200 while the service accepts new work,
// 503 (with the reasons) while it is draining, recovering requeued
// jobs, or shedding load. Load balancers route on this; liveness stays
// on /v1/healthz.
func (s *Service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	ready, reasons := s.Ready()
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
	}
	writeJSON(w, status, ReadyResponse{Ready: ready, Reasons: reasons})
}

// TenantStatus is one tenant's row in GET /v1/tenants: its policy, lane
// occupancy, and lifetime admission counters.
type TenantStatus struct {
	Policy    tenant.Policy `json:"policy"`
	Lane      LaneStat      `json:"lane"`
	Submitted int64         `json:"submitted"`
	Rejected  int64         `json:"rejected"`
}

// Tenants reports every configured tenant plus any tenant that still
// holds a lane (a recovered job of a since-deleted tenant).
func (s *Service) Tenants() map[string]TenantStatus {
	lanes := s.sched.stats()
	out := make(map[string]TenantStatus)
	for _, name := range s.cfg.Tenants.Names() {
		out[name] = TenantStatus{Policy: s.cfg.Tenants.Policy(name)}
	}
	for name, ls := range lanes {
		ts, ok := out[name]
		if !ok {
			ts.Policy = s.cfg.Tenants.Policy(name)
		}
		ts.Lane = ls
		out[name] = ts
	}
	s.met.mu.Lock()
	for name, n := range s.met.tenantSubmitted {
		ts, ok := out[name]
		if !ok {
			ts.Policy = s.cfg.Tenants.Policy(name)
		}
		ts.Submitted = n
		out[name] = ts
	}
	for name, n := range s.met.tenantRejected {
		ts, ok := out[name]
		if !ok {
			ts.Policy = s.cfg.Tenants.Policy(name)
		}
		ts.Rejected = n
		out[name] = ts
	}
	s.met.mu.Unlock()
	return out
}

func (s *Service) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"tenants": s.Tenants()})
}

// handleTelemetry reports the live instrument snapshot of every retained
// job, keyed by job id — the service-side equivalent of the single-run
// /telemetry endpoint in internal/telemetry.
func (s *Service) handleTelemetry(w http.ResponseWriter, _ *http.Request) {
	jobs := make(map[string]any)
	for _, j := range s.Jobs() {
		jobs[j.ID] = j.tel.Snapshot()
	}
	writeJSON(w, http.StatusOK, map[string]any{"service": s.Stats(), "jobs": jobs})
}

// handleMetrics serves the Prometheus text-format exposition. The
// retained-job list is captured under s.mu (inside Jobs/Stats) before the
// metrics lock is taken, preserving the service's lock order.
func (s *Service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	jobs := s.Jobs()
	st := s.Stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.met.writeMetrics(w, st, jobs); err != nil {
		return // client gone mid-scrape
	}
}

// handleFlight serves a job's flight recording: the identity plus every
// retained convergence sample, queryable while the job runs and after it
// is terminal. This is the cmd/tsmo-compare input format.
func (s *Service) handleFlight(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	samples, dropped := j.fr.Snapshot()
	writeJSON(w, http.StatusOK, flight.Recording{
		Job:         j.ID,
		Instance:    j.instName,
		Algorithm:   j.alg.String(),
		Seed:        int64(j.cfg.Seed),
		SampleEvery: j.cfg.SampleEvery,
		Dropped:     int64(dropped),
		Samples:     samples,
	})
}

// handleTrace serves the job's recorded spans as OTLP/JSON — the same
// payload a collector would receive, fetchable ad hoc for debugging a
// single job.
func (s *Service) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	data, err := trace.Export("tsmod", j.tr)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data) //nolint:errcheck // client gone
}

// handleCheckpoint serves the job's latest checkpoint envelope — the
// migration artifact the cluster coordinator caches so it can restart the
// job on a surviving node after this one dies. 404 until the first barrier
// lands, once the job is terminal (a finished job keeps only its result),
// and always for a job that does not checkpoint.
func (s *Service) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	data, barrier := j.CheckpointData()
	if data == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("job %s has no checkpoint (state %s)", j.ID, j.State()))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Checkpoint-Barrier", strconv.Itoa(barrier))
	w.Write(data) //nolint:errcheck // client gone
}

// handleShares streams one shard's outbound share batches as Server-Sent
// Events. Each batch carries its feed number as the SSE id, so a sibling
// that reconnects — directly or through the coordinator's proxy after a
// migration — resumes with Last-Event-ID (or the after query parameter)
// and misses nothing. A final `done` event announces that the shard will
// publish no further epochs. The feed is created on first touch: a sibling
// may subscribe before the local job has begun publishing.
func (s *Service) handleShares(w http.ResponseWriter, r *http.Request) {
	group := r.PathValue("group")
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if group == "" || err != nil || shard < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed share address %q/%q", group, r.PathValue("shard")))
		return
	}
	streamLog(w, r, s.stop, s.shares.feed(group, shard), func(_ int, b core.ShareBatch) (string, any) {
		return "share", b
	}, &sse.Frame{Event: "done", Data: []byte("{}")})
}

// handleEvents streams the job's events as Server-Sent Events, each with
// its Seq as the SSE id, so a dropped client resumes by replaying with
// Last-Event-ID (or the after query parameter). The stream ends once the
// job is terminal and all retained events have been delivered.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	streamLog(w, r, s.stop, j.events, func(seq int, e jobEvent) (string, any) {
		name, fields := e.ev.Render()
		return name, Event{Seq: seq, TS: e.ts, Name: name, Fields: fields}
	}, nil)
}

// sseHeartbeat is how often an idle event stream emits a keep-alive
// comment; variable so tests can shrink it.
var sseHeartbeat = 15 * time.Second

// streamLog serves a log as Server-Sent Events: the one writer of the job
// event stream and the share feed. The client resumes after the last id it
// saw, sent as Last-Event-ID or the after query parameter. frame gives each
// entry's event name and the value its data encodes as JSON; an entry that
// does not encode is skipped. Once the log is finished and the client has
// caught up, the stream writes end, if any, and closes.
func streamLog[T any](w http.ResponseWriter, r *http.Request, stop <-chan struct{}, log *seqlog.Log[T],
	frame func(seq int, v T) (event string, data any), end *sse.Frame) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("response writer does not support streaming"))
		return
	}
	after := 0
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		after, _ = strconv.Atoi(v) //nolint:errcheck // malformed id restarts the stream
	} else if v := r.URL.Query().Get("after"); v != "" {
		after, _ = strconv.Atoi(v) //nolint:errcheck // as above
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	for {
		entries, first, done, wake := log.Since(after)
		for i, v := range entries {
			event, payload := frame(first+i, v)
			data, err := json.Marshal(payload)
			if err != nil {
				continue
			}
			if err := sse.Write(w, sse.Frame{ID: first + i, Event: event, Data: data}); err != nil {
				return
			}
		}
		if len(entries) > 0 {
			after = first + len(entries) - 1
			flusher.Flush()
		}
		if done {
			if end != nil && sse.Write(w, *end) == nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-wake:
		case <-heartbeat.C:
			if _, err := io.WriteString(w, ": keep-alive\n\n"); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-stop:
			return
		}
	}
}
