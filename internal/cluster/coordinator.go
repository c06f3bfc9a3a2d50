// Package cluster turns N tsmod daemons into one solver cluster.
//
// The design is deliberately small: a single coordinator process holds a
// static peer list, pings each member's /v1/healthz for liveness, routes
// job submissions to the least-loaded live node, steals queued work from
// hot nodes, and migrates in-flight jobs off dead nodes by resubmitting
// their latest cached checkpoint envelope (PR 5 made a running job a
// portable, resumable artifact; the coordinator just moves the artifact).
// Everything travels over the service's existing HTTP API — there is no
// separate cluster protocol, no consensus, and no external dependency.
//
// Cross-node collaborative search rides on the same plumbing: a cluster
// job submitted with "cluster_share": true is split into sibling shards
// (one service job per shard, same group id), and each shard's
// archive-entering solutions stream to the others as SSE share batches.
// The coordinator proxies those streams (GET /v1/shares/{group}/{shard})
// so a subscriber never needs to know which node currently owns a shard —
// after a migration the proxy simply routes to the survivor, and the
// feed's index cursor makes the hand-off seamless.
//
// All maintenance happens in explicit Tick calls. A production daemon
// drives Tick from a timer (cmd/tsmod); the deterministic test harness
// (SimCluster) drives it manually, which is what makes every cluster
// behavior — including migration — reproducible in go test.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/pareto"
	"repro/internal/resultio"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/solution"
	"repro/internal/tenant"
)

// Config parameterizes a Coordinator.
type Config struct {
	// Peers is the static member list: base URLs of the tsmod daemons
	// ("http://host:port"). Membership is fixed for the coordinator's
	// lifetime; liveness within the list is dynamic (heartbeats).
	Peers []string
	// Client issues every member-bound request. The sim harness injects
	// an in-process transport here. Default http.DefaultClient.
	Client *http.Client
	// RetryAfter is the backoff hint attached to 503 responses when no
	// live member can take work. Default 2s.
	RetryAfter time.Duration
	// CallTimeout bounds each control call (heartbeat, submission,
	// status poll, result and checkpoint fetch, tenant poll, cancel),
	// reading the reply included. Streaming share proxies are exempt.
	// Default 5s.
	CallTimeout time.Duration
	// Logger receives cluster lifecycle log lines. nil logs nothing.
	Logger *slog.Logger
	// Version is reported by the coordinator's own /v1/healthz.
	Version string
	// Tenants, when non-nil, is the coordinator's own view of the member
	// keyfile: it resolves the caller's Authorization header so routing
	// can weigh a tenant's existing per-node backlog. nil disables
	// tenant-aware placement; the header is still forwarded verbatim, so
	// members enforce their quotas either way.
	Tenants *tenant.Registry
}

// JobRequest is the body of POST /v1/jobs on the coordinator: a plain
// service job spec plus the cluster envelope.
type JobRequest struct {
	service.JobSpec
	// ClusterShare turns on cross-node collaborative search: the job is
	// split into Shards sibling jobs that exchange archive-entering
	// solutions at epoch boundaries.
	ClusterShare bool `json:"cluster_share,omitempty"`
	// Shards is the number of sibling jobs the request fans out to.
	// Default 1 (the job is still cluster-managed: placed on the least
	// loaded node and migrated off a dead one).
	Shards int `json:"shards,omitempty"`
}

// shardState tracks one shard of a cluster job: where it runs, how it is
// doing, and the latest checkpoint envelope cached for migration.
type shardState struct {
	Shard   int           `json:"shard"`
	Node    string        `json:"node,omitempty"` // current owner, "" while unplaced
	JobID   string        `json:"job,omitempty"`  // node-local job id
	Attempt int           `json:"attempt"`
	State   service.State `json:"state"`
	Barrier int           `json:"barrier,omitempty"` // newest cached checkpoint barrier
	Error   string        `json:"error,omitempty"`

	spec  service.JobSpec     // submitted per-shard spec (seed/budget already split)
	ckpt  json.RawMessage     // latest cached checkpoint envelope
	front *resultio.FrontFile // result, once the shard is done
}

func (sh *shardState) terminal() bool { return sh.State.Terminal() }

// clusterJob is one coordinator-managed job.
type clusterJob struct {
	ID          string
	Req         JobRequest
	Shards      []*shardState
	Traceparent string
	// Auth is the caller's Authorization header, forwarded verbatim on
	// every member submission — including migrations and steals, so a
	// shard never loses its tenant identity by moving. Tenant is the
	// coordinator-resolved name ("" when Config.Tenants is nil), used
	// only for placement weighting.
	Auth   string
	Tenant string
}

// member is one static peer plus its last observed health.
type member struct {
	URL      string
	Alive    bool
	Stats    service.Stats
	LastSeen time.Time
	// placed counts submissions routed here since the last heartbeat, so
	// a burst of placements spreads before fresh load numbers arrive.
	placed int
}

// Coordinator routes, monitors, steals and migrates. All state is guarded
// by mu; member-bound HTTP calls happen outside the lock.
type Coordinator struct {
	cfg Config
	// ctl is Config.Client with Config.CallTimeout as its Timeout: the
	// client of every control call. Share proxies stream on
	// Config.Client itself.
	ctl *http.Client

	mu      sync.Mutex
	members map[string]*member
	jobs    map[string]*clusterJob
	order   []string // cluster job ids in submission order
	seq     int
}

// New returns a Coordinator over the configured peer set. Members start
// out optimistically alive; the first Tick (or a failed submission)
// corrects that.
func New(cfg Config) *Coordinator {
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 2 * time.Second
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 5 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	ctl := *cfg.Client
	ctl.Timeout = cfg.CallTimeout
	c := &Coordinator{
		cfg:     cfg,
		ctl:     &ctl,
		members: make(map[string]*member),
		jobs:    make(map[string]*clusterJob),
	}
	for _, url := range cfg.Peers {
		c.members[url] = &member{URL: url, Alive: true}
	}
	return c
}

// shardSpecs splits a cluster request into per-shard service specs. Seeds
// derive from the request seed through the shared PRNG (successive
// draws), the evaluation budget splits evenly with the remainder going to
// the low shards, and — for sharing jobs — the cluster envelope fields
// address the shard within its group.
func shardSpecs(id string, req JobRequest) []service.JobSpec {
	n := req.Shards
	r := rng.New(req.Seed)
	per, rem := 0, 0
	if req.MaxEvaluations > 0 {
		per, rem = req.MaxEvaluations/n, req.MaxEvaluations%n
	}
	specs := make([]service.JobSpec, n)
	for i := range specs {
		sp := req.JobSpec
		sp.Seed = r.Uint64()
		if per > 0 || rem > 0 {
			sp.MaxEvaluations = per
			if i < rem {
				sp.MaxEvaluations++
			}
		}
		if req.ClusterShare {
			sp.ShareGroup = id
			sp.ShareShard = i
			sp.ShareShards = n
		}
		specs[i] = sp
	}
	return specs
}

// Submit fans a cluster job out to the members, forwarding the caller's
// Authorization header to every member submission. Shards that cannot
// be placed right now (not enough live nodes) stay unplaced and are
// placed by a later Tick; only when no shard at all can be placed does
// Submit refuse — with the members' own backpressure verdict when every
// live node pushed back (the caller sees their Retry-After verbatim),
// or errNoMembers when nobody is reachable — so the caller can
// retry without the coordinator tracking a ghost job.
func (c *Coordinator) Submit(req JobRequest, traceparent, auth string) (*clusterJob, error) {
	if req.Shards <= 0 {
		req.Shards = 1
	}
	tn := ""
	if c.cfg.Tenants != nil {
		var err error
		if tn, err = c.cfg.Tenants.Resolve(auth); err != nil {
			return nil, err
		}
	}
	if req.ShareGroup != "" || req.ShareShard != 0 || req.ShareShards != 0 {
		return nil, fmt.Errorf("share_group, share_shard, share_shards: cluster-managed fields; use cluster_share and shards")
	}
	if req.Resume != nil {
		return nil, fmt.Errorf("resume: cluster jobs checkpoint and migrate internally; a caller-supplied checkpoint is not accepted")
	}
	if req.ClusterShare && req.Algorithm == "combined" {
		return nil, fmt.Errorf("cluster_share: the combined variant cannot share across nodes")
	}

	c.mu.Lock()
	c.seq++
	id := fmt.Sprintf("c%06d", c.seq)
	j := &clusterJob{ID: id, Req: req, Traceparent: traceparent, Auth: auth, Tenant: tn}
	for i, sp := range shardSpecs(id, req) {
		j.Shards = append(j.Shards, &shardState{Shard: i, State: service.StateQueued, spec: sp})
	}
	c.mu.Unlock()

	placed := 0
	var bp *backpressureError
	for _, sh := range j.Shards {
		err := c.place(j, sh)
		var rej *rejectedError
		if errors.As(err, &rej) {
			// The members rejected the spec itself; undo any shard already
			// placed and bounce the verdict back to the caller as a 400.
			for _, prev := range j.Shards {
				if prev.JobID != "" {
					call(context.Background(), c.ctl, http.MethodDelete, prev.Node+"/v1/jobs/"+prev.JobID, nil, nil) // best-effort cleanup
				}
			}
			return nil, err
		}
		if err != nil {
			errors.As(err, &bp)
			c.cfg.Logger.Warn("cluster: shard placement deferred", "job", id, "shard", sh.Shard, "error", err)
			continue
		}
		placed++
	}
	if placed == 0 {
		if bp != nil {
			// Every live member pushed back (quota or overload); hand the
			// caller the members' own verdict and Retry-After, verbatim.
			return nil, bp
		}
		return nil, errNoMembers
	}
	c.mu.Lock()
	c.jobs[id] = j
	c.order = append(c.order, id)
	c.mu.Unlock()
	c.cfg.Logger.Info("cluster: job accepted", "job", id, "shards", req.Shards, "placed", placed)
	return j, nil
}

var errNoMembers = fmt.Errorf("no live cluster member can accept work")

// rejectedError marks a member's 4xx verdict on a submitted spec — a bad
// job, not a bad node. Placement propagates it to the caller as a 400.
type rejectedError struct{ err error }

func (e *rejectedError) Error() string { return e.err.Error() }
func (e *rejectedError) Unwrap() error { return e.err }

// backpressureError marks a member's 429/503 verdict: a healthy node
// refusing new work (tenant quota, full queue, draining, load shed).
// Backpressure never marks a node dead — placement just tries the next
// candidate, and when every live member pushes back the member's status
// and Retry-After propagate verbatim to the caller.
type backpressureError struct {
	status     int
	retryAfter string // the member's Retry-After header, verbatim
	err        error
}

func (e *backpressureError) Error() string { return e.err.Error() }
func (e *backpressureError) Unwrap() error { return e.err }

// place submits one shard to the least-loaded live node, trying the next
// candidate when a submission fails (marking the node dead on transport
// or 5xx failure, merely skipping it on 429/503 backpressure). The
// shard's idempotency key carries the attempt counter, so a node that
// already holds this attempt returns the existing job instead of a twin.
func (c *Coordinator) place(j *clusterJob, sh *shardState) error {
	tried := make(map[string]bool)
	var bp *backpressureError
	for {
		node := c.pickNode(tried, j.Tenant)
		if node == "" {
			if bp != nil {
				return bp
			}
			return errNoMembers
		}
		spec := sh.spec
		spec.IdempotencyKey = fmt.Sprintf("%s/s%d/a%d", j.ID, sh.Shard, sh.Attempt)
		if sh.ckpt != nil {
			spec.Resume = sh.ckpt
		}
		r := call(context.Background(), c.ctl, http.MethodPost, node+"/v1/jobs", spec,
			map[string]string{"traceparent": j.Traceparent, "Authorization": j.Auth})
		var sub service.SubmitResponse
		err := r.decode(http.StatusAccepted, &sub)
		if err != nil {
			err = fmt.Errorf("submit: %w", err)
		}
		switch {
		case err == nil:
			c.mu.Lock()
			sh.Node, sh.JobID, sh.State = node, sub.ID, service.StateQueued
			c.mu.Unlock()
			c.cfg.Logger.Info("cluster: shard placed", "job", j.ID, "shard", sh.Shard, "node", node,
				"node_job", sub.ID, "attempt", sh.Attempt, "barrier", sh.Barrier)
			return nil
		case r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable:
			// Backpressure from a healthy node: quota, full queue,
			// draining, load shed. Keep the verdict promising the soonest
			// retry, with the member's Retry-After verbatim; a
			// co-tenant's lane freeing on any one node unblocks the
			// caller.
			ra := r.header.Get("Retry-After")
			if bp == nil || retrySeconds(ra) < retrySeconds(bp.retryAfter) {
				bp = &backpressureError{status: r.status, retryAfter: ra, err: err}
			}
			tried[node] = true
			c.cfg.Logger.Info("cluster: member backpressure, trying next", "node", node, "error", err)
		case r.status >= 400 && r.status < 500:
			// Any other 4xx is the member's verdict on the spec, not on
			// its own health: every node enforces the same limits, so
			// retrying elsewhere would reject everywhere.
			return &rejectedError{err}
		default:
			c.cfg.Logger.Warn("cluster: submission failed, marking node dead", "node", node, "error", err)
			c.markDead(node)
		}
	}
}

// retrySeconds parses a Retry-After header for comparison; missing or
// malformed values sort last.
func retrySeconds(v string) int {
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 1<<31 - 1
	}
	return n
}

// pickNode returns the live member with the lowest load estimate — busy
// workers + queued jobs + placements since its last heartbeat, plus the
// submitting tenant's own backlog on that node when the coordinator is
// tenant-aware (spreading one tenant across members keeps a flood from
// monopolizing a single node's lanes) — breaking ties by peer-list
// order. skip holds nodes that already pushed back on this placement;
// "" when no further candidate is alive.
func (c *Coordinator) pickNode(skip map[string]bool, tn string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	best, bestLoad := "", 0
	for _, url := range c.cfg.Peers {
		m := c.members[url]
		if !m.Alive || skip[url] {
			continue
		}
		load := m.Stats.Busy + m.Stats.QueueLen + m.placed
		if tn != "" {
			if ls, ok := m.Stats.Tenants[tn]; ok {
				load += ls.Queued + ls.Running
			}
		}
		if best == "" || load < bestLoad {
			best, bestLoad = url, load
		}
	}
	if best != "" {
		c.members[best].placed++
	}
	return best
}

func (c *Coordinator) markDead(node string) {
	c.mu.Lock()
	if m, ok := c.members[node]; ok {
		m.Alive = false
	}
	c.mu.Unlock()
}

// alive reports the liveness of a member under the lock.
func (c *Coordinator) alive(node string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.members[node]
	return ok && m.Alive
}

// TickReport summarizes one maintenance round, mostly for tests and logs.
type TickReport struct {
	Alive      int `json:"alive"`
	Dead       int `json:"dead"`
	Migrations int `json:"migrations"`
	Steals     int `json:"steals"`
}

// Tick runs one maintenance round: heartbeat every member, poll every
// live shard (state, result, checkpoint cache), migrate shards stranded
// on dead nodes, and steal queued work from hot nodes. Deterministic
// given the member responses: members are visited in peer-list order and
// jobs in submission order.
func (c *Coordinator) Tick() TickReport {
	var rep TickReport

	// Heartbeats refresh liveness and load.
	for _, url := range c.cfg.Peers {
		var st service.Stats
		err := call(context.Background(), c.ctl, http.MethodGet, url+"/v1/healthz", nil, nil).decode(http.StatusOK, &st)
		c.mu.Lock()
		m := c.members[url]
		was := m.Alive
		if err != nil {
			m.Alive = false
			rep.Dead++
		} else {
			m.Alive, m.Stats, m.LastSeen, m.placed = true, st, time.Now(), 0
			rep.Alive++
		}
		c.mu.Unlock()
		if err != nil && was {
			c.cfg.Logger.Warn("cluster: member lost", "node", url, "error", err)
		} else if err == nil && !was {
			c.cfg.Logger.Info("cluster: member joined", "node", url)
		}
	}

	// Poll shards and migrate the stranded ones.
	c.mu.Lock()
	ids := append([]string(nil), c.order...)
	c.mu.Unlock()
	for _, id := range ids {
		c.mu.Lock()
		j := c.jobs[id]
		c.mu.Unlock()
		for _, sh := range j.Shards {
			if sh.terminal() {
				continue
			}
			if sh.Node != "" && c.alive(sh.Node) {
				c.pollShard(j, sh)
				continue
			}
			// Stranded: owner dead or never placed. Resubmit from the
			// latest cached checkpoint; from scratch when none was
			// reached (always safe, just slower).
			c.mu.Lock()
			sh.Attempt++
			sh.Node, sh.JobID = "", ""
			c.mu.Unlock()
			if err := c.place(j, sh); err != nil {
				var rej *rejectedError
				if errors.As(err, &rej) {
					// The survivors reject the resubmission (say, a
					// corrupt cached checkpoint): retrying every tick
					// cannot succeed, so the shard fails terminally.
					c.mu.Lock()
					sh.State, sh.Error = service.StateFailed, err.Error()
					c.mu.Unlock()
					c.cfg.Logger.Warn("cluster: migration rejected, shard failed",
						"job", j.ID, "shard", sh.Shard, "error", err)
					continue
				}
				c.cfg.Logger.Warn("cluster: migration deferred, no live node", "job", j.ID, "shard", sh.Shard)
				continue
			}
			rep.Migrations++
		}
	}

	rep.Steals = c.steal()
	return rep
}

// pollShard refreshes one live shard: its state, its result when it just
// finished, and its newest checkpoint (the migration artifact — cached
// eagerly, because once the node dies it is too late to ask).
func (c *Coordinator) pollShard(j *clusterJob, sh *shardState) {
	job := sh.Node + "/v1/jobs/" + sh.JobID
	var st struct {
		State service.State `json:"state"`
		Error string        `json:"error"`
	}
	if err := call(context.Background(), c.ctl, http.MethodGet, job, nil, nil).decode(http.StatusOK, &st); err != nil {
		c.cfg.Logger.Warn("cluster: shard poll failed", "job", j.ID, "shard", sh.Shard, "node", sh.Node, "error", err)
		c.markDead(sh.Node)
		return
	}
	if st.State.Terminal() {
		var front *resultio.FrontFile
		if st.State == service.StateDone {
			front = new(resultio.FrontFile)
			if err := call(context.Background(), c.ctl, http.MethodGet, job+"/result", nil, nil).decode(http.StatusOK, front); err != nil {
				// The node answered the status poll but not the result
				// fetch; leave the shard non-terminal and let the next
				// tick retry (or migrate, if the node died in between).
				c.cfg.Logger.Warn("cluster: result fetch failed", "job", j.ID, "shard", sh.Shard, "error", err)
				return
			}
		}
		c.mu.Lock()
		sh.State, sh.Error, sh.front = st.State, st.Error, front
		c.mu.Unlock()
		c.cfg.Logger.Info("cluster: shard finished", "job", j.ID, "shard", sh.Shard, "state", string(st.State))
		return
	}
	c.mu.Lock()
	sh.State = st.State
	c.mu.Unlock()
	r := call(context.Background(), c.ctl, http.MethodGet, job+"/checkpoint", nil, nil)
	barrier, _ := strconv.Atoi(r.header.Get("X-Checkpoint-Barrier")) //nolint:errcheck // 0 on absence
	if r.decode(http.StatusOK, nil) == nil && barrier > sh.Barrier {
		c.mu.Lock()
		sh.ckpt, sh.Barrier = r.body, barrier
		c.mu.Unlock()
	}
}

// steal rebalances queued work: when a live node has cluster shards
// waiting in its queue while another live node has a free worker and an
// empty queue, one shard moves. At most one steal per tick keeps the
// rebalance gentle and the tests deterministic.
func (c *Coordinator) steal() int {
	idle := ""
	c.mu.Lock()
	for _, url := range c.cfg.Peers {
		m := c.members[url]
		if m.Alive && m.Stats.QueueLen == 0 && m.Stats.Busy+m.placed < m.Stats.Workers {
			idle = url
			break
		}
	}
	ids := append([]string(nil), c.order...)
	c.mu.Unlock()
	if idle == "" {
		return 0
	}
	for _, id := range ids {
		c.mu.Lock()
		j := c.jobs[id]
		c.mu.Unlock()
		for _, sh := range j.Shards {
			hot := sh.Node != "" && sh.Node != idle && sh.State == service.StateQueued &&
				c.alive(sh.Node) && c.queueLen(sh.Node) > 0
			if !hot {
				continue
			}
			if err := call(context.Background(), c.ctl, http.MethodDelete, sh.Node+"/v1/jobs/"+sh.JobID, nil, nil).decode(http.StatusOK, nil); err != nil {
				c.cfg.Logger.Warn("cluster: steal cancel failed", "job", j.ID, "shard", sh.Shard, "error", err)
				continue
			}
			c.mu.Lock()
			sh.Attempt++
			sh.Node, sh.JobID = "", ""
			c.mu.Unlock()
			if err := c.place(j, sh); err != nil {
				// The idle node vanished between the checks; the next
				// tick's migration pass re-places the shard.
				return 0
			}
			c.cfg.Logger.Info("cluster: stole queued shard", "job", j.ID, "shard", sh.Shard, "to", idle)
			return 1
		}
	}
	return 0
}

func (c *Coordinator) queueLen(node string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.members[node]; ok {
		return m.Stats.QueueLen
	}
	return 0
}

// JobStatus is the aggregate view of a cluster job.
type JobStatus struct {
	ID     string        `json:"id"`
	State  service.State `json:"state"`
	Shards []shardState  `json:"shards"`
}

// Status aggregates the shard states: failed or canceled if any shard
// terminally failed, done when every shard is done, running as soon as
// any shard runs, queued otherwise.
func (c *Coordinator) Status(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	st := JobStatus{ID: id, State: service.StateDone}
	running, done := false, true
	for _, sh := range j.Shards {
		st.Shards = append(st.Shards, *sh)
		switch sh.State {
		case service.StateFailed, service.StateCanceled:
			st.State = sh.State
			return st, true
		case service.StateRunning:
			running, done = true, false
		case service.StateQueued:
			done = false
		}
	}
	switch {
	case done:
	case running:
		st.State = service.StateRunning
	default:
		st.State = service.StateQueued
	}
	return st, true
}

// MergedResult combines the shard fronts into one non-dominated front,
// available once every shard is done. The merge is deterministic: collect
// every shard solution (shard order), keep the non-dominated ones, sort
// by objective vector.
func (c *Coordinator) MergedResult(id string) (*resultio.FrontFile, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, fmt.Errorf("unknown cluster job %s", id)
	}
	var recs []resultio.SolutionRecord
	out := &resultio.FrontFile{Algorithm: j.Req.Algorithm, Processors: j.Req.Processors}
	for _, sh := range j.Shards {
		if !sh.terminal() || sh.State != service.StateDone {
			return nil, fmt.Errorf("cluster job %s shard %d is %s; the merged result needs every shard done", id, sh.Shard, sh.State)
		}
		if sh.front == nil {
			continue
		}
		out.Instance = sh.front.Instance
		out.Evaluations += sh.front.Evaluations
		if sh.front.Elapsed > out.Elapsed {
			out.Elapsed = sh.front.Elapsed
		}
		recs = append(recs, sh.front.Solutions...)
	}
	out.Solutions = MergeFronts(recs)
	return out, nil
}

// MergeFronts filters a pooled solution set down to its non-dominated
// members and sorts them by objective vector — the canonical cluster
// front. Duplicated objective vectors (the same solution found by two
// shards) collapse to one entry.
func MergeFronts(recs []resultio.SolutionRecord) []resultio.SolutionRecord {
	obj := func(r resultio.SolutionRecord) solution.Objectives {
		return solution.Objectives{Distance: r.Distance, Vehicles: r.Vehicles, Tardiness: r.Tardiness}
	}
	objs := make([]solution.Objectives, len(recs))
	for i, r := range recs {
		objs[i] = obj(r)
	}
	var front []resultio.SolutionRecord
	for _, i := range pareto.NondominatedIndices(objs) {
		front = append(front, recs[i])
	}
	sort.Slice(front, func(i, k int) bool {
		a, b := obj(front[i]).Values(), obj(front[k]).Values()
		for d := 0; d < 3; d++ {
			if a[d] != b[d] {
				return a[d] < b[d]
			}
		}
		return false
	})
	dedup := front[:0]
	for i, r := range front {
		if i > 0 && obj(r) == obj(front[i-1]) {
			continue
		}
		dedup = append(dedup, r)
	}
	return dedup
}

// TenantsReport aggregates the members' per-tenant views: lane
// occupancy and admission counters summed across every live node,
// keyed by tenant. Policy comes from the first member reporting the
// tenant (the keyfile is shared, so they agree).
func (c *Coordinator) TenantsReport() map[string]service.TenantStatus {
	agg := make(map[string]service.TenantStatus)
	for _, url := range c.cfg.Peers {
		if !c.alive(url) {
			continue
		}
		var body struct {
			Tenants map[string]service.TenantStatus `json:"tenants"`
		}
		err := call(context.Background(), c.ctl, http.MethodGet, url+"/v1/tenants", nil, nil).decode(http.StatusOK, &body)
		if err != nil {
			c.cfg.Logger.Warn("cluster: tenant poll failed", "node", url, "error", err)
			continue
		}
		for name, ts := range body.Tenants {
			a, ok := agg[name]
			if !ok {
				a.Policy = ts.Policy
			}
			a.Lane.Queued += ts.Lane.Queued
			a.Lane.Running += ts.Lane.Running
			a.Lane.Weight = max(a.Lane.Weight, ts.Lane.Weight)
			a.Submitted += ts.Submitted
			a.Rejected += ts.Rejected
			agg[name] = a
		}
	}
	return agg
}

// ---- member HTTP calls ----------------------------------------------------

// reply is a member's answer to one control call: its status, headers
// and body read in full, or err when the call got no answer (status 0).
type reply struct {
	status int
	header http.Header
	body   []byte
	err    error
}

// call issues one control call to a member: it sends the request — body
// JSON-encoded when non-nil, every non-empty header set — under ctx on
// client and reads the whole reply, so the connection returns to the
// pool. The coordinator calls on its ctl client, which times each call
// out after Config.CallTimeout; a share follower calls under its
// gatherer's context, which Close cancels.
func call(ctx context.Context, client *http.Client, method, url string, body any, header map[string]string) reply {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return reply{err: err}
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		if v != "" {
			req.Header.Set(k, v)
		}
	}
	resp, err := client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{err: err}
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: data}
}

// decode returns the call's error, fails a reply whose status is not
// want with the member's own error text, and otherwise unmarshals the
// JSON body into v (when v is non-nil).
func (r reply) decode(want int, v any) error {
	if r.err != nil {
		return r.err
	}
	if r.status != want {
		return fmt.Errorf("%d %s: %s", r.status, http.StatusText(r.status), bytes.TrimSpace(r.body))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(r.body, v)
}
