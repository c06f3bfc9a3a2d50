package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/strictjson"
	"repro/internal/tenant"
)

// Handler returns the coordinator's HTTP API:
//
//	POST   /v1/jobs                    submit a cluster job (202; 503 + Retry-After when no member is reachable)
//	GET    /v1/jobs/{id}               aggregate shard status
//	GET    /v1/jobs/{id}/result        merged non-dominated front (409 until every shard is done)
//	GET    /v1/shares/{group}/{shard}  SSE share proxy to the shard's current owner
//	GET    /v1/members                 membership and liveness
//	GET    /v1/tenants                 per-tenant lanes and counters, summed across live members
//	GET    /v1/healthz                 coordinator health
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", c.handleResult)
	mux.HandleFunc("GET /v1/shares/{group}/{shard}", c.handleShareProxy)
	mux.HandleFunc("GET /v1/members", c.handleMembers)
	mux.HandleFunc("GET /v1/tenants", c.handleTenants)
	mux.HandleFunc("GET /v1/healthz", c.handleHealthz)
	return mux
}

func (c *Coordinator) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

func (c *Coordinator) writeError(w http.ResponseWriter, status int, err error) {
	c.writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (c *Coordinator) retryAfter(w http.ResponseWriter) {
	secs := int(c.cfg.RetryAfter.Round(time.Second) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := strictjson.Decode(http.MaxBytesReader(w, r.Body, 8<<20), &req); err != nil {
		c.writeError(w, http.StatusBadRequest, fmt.Errorf("decoding cluster job: %w", err))
		return
	}
	if tp := r.Header.Get("traceparent"); tp != "" {
		req.Traceparent = tp
	}
	j, err := c.Submit(req, req.Traceparent, r.Header.Get("Authorization"))
	var bp *backpressureError
	switch {
	case errors.As(err, &bp):
		// Every live member pushed back: relay their verdict — status and
		// Retry-After — verbatim, so the caller backs off exactly as long
		// as the member that will free up soonest asked for.
		if bp.retryAfter != "" {
			w.Header().Set("Retry-After", bp.retryAfter)
		} else {
			c.retryAfter(w)
		}
		c.writeError(w, bp.status, err)
		return
	case errors.Is(err, errNoMembers):
		c.retryAfter(w)
		c.writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, tenant.ErrUnauthorized):
		c.writeError(w, http.StatusUnauthorized, err)
		return
	case err != nil:
		c.writeError(w, http.StatusBadRequest, err)
		return
	}
	st, _ := c.Status(j.ID)
	c.writeJSON(w, http.StatusAccepted, map[string]any{
		"id":         j.ID,
		"state":      st.State,
		"shards":     st.Shards,
		"status_url": "/v1/jobs/" + j.ID,
	})
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := c.Status(r.PathValue("id"))
	if !ok {
		c.writeError(w, http.StatusNotFound, fmt.Errorf("unknown cluster job %s", r.PathValue("id")))
		return
	}
	c.writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := c.Status(id); !ok {
		c.writeError(w, http.StatusNotFound, fmt.Errorf("unknown cluster job %s", id))
		return
	}
	ff, err := c.MergedResult(id)
	if err != nil {
		// The merge will succeed once every shard is done; tell polling
		// clients when to ask again.
		c.retryAfter(w)
		c.writeError(w, http.StatusConflict, err)
		return
	}
	c.writeJSON(w, http.StatusOK, ff)
}

func (c *Coordinator) handleMembers(w http.ResponseWriter, _ *http.Request) {
	type memberStatus struct {
		URL      string    `json:"url"`
		Alive    bool      `json:"alive"`
		Busy     int       `json:"busy"`
		QueueLen int       `json:"queue_len"`
		LastSeen time.Time `json:"last_seen,omitempty"`
	}
	c.mu.Lock()
	out := make([]memberStatus, 0, len(c.cfg.Peers))
	for _, url := range c.cfg.Peers {
		m := c.members[url]
		out = append(out, memberStatus{URL: url, Alive: m.Alive, Busy: m.Stats.Busy,
			QueueLen: m.Stats.QueueLen, LastSeen: m.LastSeen})
	}
	c.mu.Unlock()
	c.writeJSON(w, http.StatusOK, map[string]any{"members": out})
}

// handleTenants serves the cluster-wide tenant view: each member's
// /v1/tenants summed per tenant. Same shape as the member endpoint, so
// tsmoctl tenants works against either address.
func (c *Coordinator) handleTenants(w http.ResponseWriter, _ *http.Request) {
	c.writeJSON(w, http.StatusOK, map[string]any{"tenants": c.TenantsReport()})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	c.mu.Lock()
	alive := 0
	for _, m := range c.members {
		if m.Alive {
			alive++
		}
	}
	jobs := len(c.jobs)
	c.mu.Unlock()
	c.writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"role":    "coordinator",
		"version": c.cfg.Version,
		"members": len(c.cfg.Peers),
		"alive":   alive,
		"jobs":    jobs,
	})
}

// handleShareProxy streams a shard's share feed from whichever node owns
// it right now. Subscribers keep a single stable URL across migrations:
//
//   - 404: the group is unknown to this coordinator.
//   - 410: the shard is terminally gone (finished or failed on a node
//     that has since died); it will never publish again, so subscribers
//     treat it as done.
//   - 503 + Retry-After: the shard is between owners (its node just died
//     and the next tick has not re-placed it). Subscribers reconnect with
//     their `after` cursor and miss nothing: the resumed incarnation
//     republishes its post-checkpoint epochs bit-identically.
func (c *Coordinator) handleShareProxy(w http.ResponseWriter, r *http.Request) {
	group := r.PathValue("group")
	shard, err := strconv.Atoi(r.PathValue("shard"))
	if err != nil || shard < 0 {
		c.writeError(w, http.StatusBadRequest, fmt.Errorf("malformed shard index %q", r.PathValue("shard")))
		return
	}
	c.mu.Lock()
	j, ok := c.jobs[group]
	var (
		node     string
		terminal bool
	)
	if ok && shard < len(j.Shards) {
		node = j.Shards[shard].Node
		terminal = j.Shards[shard].terminal()
	} else {
		ok = false
	}
	c.mu.Unlock()
	if !ok {
		c.writeError(w, http.StatusNotFound, fmt.Errorf("unknown share group %s shard %d", group, shard))
		return
	}
	alive := node != "" && c.alive(node)
	if terminal && !alive {
		c.writeError(w, http.StatusGone, fmt.Errorf("shard %d of group %s is finished and its node is gone", shard, group))
		return
	}
	if !alive {
		c.retryAfter(w)
		c.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("shard %d of group %s is migrating", shard, group))
		return
	}

	url := node + "/v1/shares/" + group + "/" + strconv.Itoa(shard)
	if after := r.URL.Query().Get("after"); after != "" {
		url += "?after=" + after
	}
	// The proxy request shares the subscriber's context (no CallTimeout:
	// share streams are long-lived) and forwards the SSE resume cursor.
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, url, nil)
	if err != nil {
		c.writeError(w, http.StatusInternalServerError, err)
		return
	}
	if id := r.Header.Get("Last-Event-ID"); id != "" {
		req.Header.Set("Last-Event-ID", id)
	}
	resp, err := c.cfg.Client.Do(req)
	if err != nil {
		c.markDead(node)
		c.retryAfter(w)
		c.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("shard %d of group %s: owner unreachable", shard, group))
		return
	}
	defer resp.Body.Close() //nolint:errcheck // read side
	if resp.StatusCode != http.StatusOK {
		c.retryAfter(w)
		c.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("shard %d of group %s: owner said %s", shard, group, resp.Status))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			if err != io.EOF {
				// The upstream died mid-stream; the subscriber's read
				// fails and its reconnect loop takes over.
				c.markDead(node)
			}
			return
		}
	}
}
