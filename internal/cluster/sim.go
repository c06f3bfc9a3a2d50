// The deterministic in-process cluster harness.
//
// SimCluster wires N real service.Service instances plus one Coordinator
// over an in-memory HTTP transport — no sockets, no ports, no listener
// races — so every cluster behavior runs bit-for-bit reproducibly inside
// go test. Node-level faults are first-class: Kill stops a node the way
// SIGKILL would (its jobs die mid-flight, its address stops resolving),
// PartitionCoordinator cuts every node off while its jobs keep running,
// and HealAll undoes that. The search itself runs on the deterministic
// deme simulator (the service default), so fault timing perturbs
// wall-clock interleaving only — never the search trajectories, which is
// what makes the chaos suite's run-twice bit-identity assertions
// possible.
package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/service"
)

// memTransport resolves host names to in-process handlers. It implements
// http.RoundTripper; responses stream through a pipe so SSE works exactly
// as it does over a socket, including mid-stream connection loss when the
// serving host goes down.
type memTransport struct {
	mu    sync.Mutex
	hosts map[string]http.Handler
	down  map[string]bool
	// conns tracks the live response pipes per serving host so SetDown
	// can sever them the way a dying machine severs its TCP streams.
	conns map[string]map[*io.PipeWriter]struct{}
}

func newMemTransport() *memTransport {
	return &memTransport{
		hosts: make(map[string]http.Handler),
		down:  make(map[string]bool),
		conns: make(map[string]map[*io.PipeWriter]struct{}),
	}
}

// Register binds a host name ("node0") to a handler.
func (t *memTransport) Register(host string, h http.Handler) {
	t.mu.Lock()
	t.hosts[host] = h
	t.mu.Unlock()
}

// SetDown makes a host unreachable (true) or reachable again (false).
// Taking a host down severs its in-flight response streams.
func (t *memTransport) SetDown(host string, down bool) {
	t.mu.Lock()
	t.down[host] = down
	var sever []*io.PipeWriter
	if down {
		for pw := range t.conns[host] {
			sever = append(sever, pw)
		}
		t.conns[host] = nil
	}
	t.mu.Unlock()
	for _, pw := range sever {
		pw.CloseWithError(fmt.Errorf("cluster sim: host %s went down mid-stream", host)) //nolint:errcheck // always nil
	}
}

func (t *memTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	t.mu.Lock()
	h, ok := t.hosts[host]
	down := t.down[host]
	t.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("cluster sim: unknown host %q", host)
	}
	if down {
		return nil, fmt.Errorf("cluster sim: host %s is down", host)
	}

	pr, pw := io.Pipe()
	rw := &pipeResponseWriter{header: make(http.Header), pw: pw, ready: make(chan struct{})}
	t.mu.Lock()
	if t.conns[host] == nil {
		t.conns[host] = make(map[*io.PipeWriter]struct{})
	}
	t.conns[host][pw] = struct{}{}
	t.mu.Unlock()

	// The handler runs on its own goroutine and streams through the pipe;
	// a canceled request context unblocks it the way a closed socket
	// would.
	ctx, cancel := context.WithCancel(req.Context())
	go func() {
		defer cancel()
		h.ServeHTTP(rw, req.WithContext(ctx))
		rw.finish()
		pw.Close() //nolint:errcheck // always nil
		t.mu.Lock()
		delete(t.conns[host], pw)
		t.mu.Unlock()
	}()
	<-rw.ready
	return &http.Response{
		Status:     http.StatusText(rw.status),
		StatusCode: rw.status,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     rw.header,
		Body:       &cancelBody{ReadCloser: pr, cancel: cancel},
		Request:    req,
	}, nil
}

// cancelBody cancels the handler's context when the client closes the
// body, so long-lived SSE handlers notice subscriber departure.
type cancelBody struct {
	io.ReadCloser
	cancel context.CancelFunc
}

func (b *cancelBody) Close() error {
	b.cancel()
	return b.ReadCloser.Close()
}

// pipeResponseWriter adapts the write half of a pipe to
// http.ResponseWriter + http.Flusher. The first Write (or WriteHeader, or
// handler return) releases the waiting RoundTrip with the status and
// headers; Flush is a no-op because a pipe delivers immediately.
type pipeResponseWriter struct {
	header http.Header
	pw     *io.PipeWriter
	ready  chan struct{}
	once   sync.Once
	status int
}

func (w *pipeResponseWriter) Header() http.Header { return w.header }

func (w *pipeResponseWriter) WriteHeader(status int) {
	w.once.Do(func() {
		w.status = status
		close(w.ready)
	})
}

func (w *pipeResponseWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.pw.Write(b)
}

func (w *pipeResponseWriter) Flush() {}

// finish releases RoundTrip for handlers that never wrote anything.
func (w *pipeResponseWriter) finish() { w.WriteHeader(http.StatusOK) }

// SimOptions parameterizes a SimCluster.
type SimOptions struct {
	// Nodes is the member count. Default 3.
	Nodes int
	// Workers per node. Default 2.
	Workers int
	// CheckpointEvery is each node's checkpoint cadence in master
	// iterations; required for migration. Default 25.
	CheckpointEvery int
	// DataDirs, when non-empty, makes node i durable at DataDirs[i].
	// In-memory nodes migrate from the coordinator's cached checkpoints
	// only, which is the common sim configuration.
	DataDirs []string
	// Service overrides the remaining per-node service configuration
	// (limits, logger). Transport-related fields are overwritten.
	Service service.Config
}

// SimCluster is N in-process nodes plus a coordinator on one in-memory
// transport.
type SimCluster struct {
	Transport *memTransport
	Client    *http.Client
	Nodes     []*service.Service
	NodeURLs  []string
	Coord     *Coordinator
	CoordURL  string
}

// NewSim builds a cluster: node i serves at http://node<i>, the
// coordinator at http://coordinator, and every node's ShareDial routes
// through the coordinator's share proxy.
func NewSim(opts SimOptions) (*SimCluster, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 25
	}
	tr := newMemTransport()
	client := &http.Client{Transport: tr}
	sc := &SimCluster{Transport: tr, Client: client, CoordURL: "http://coordinator"}
	for i := 0; i < opts.Nodes; i++ {
		cfg := opts.Service
		cfg.Workers = opts.Workers
		cfg.CheckpointEvery = opts.CheckpointEvery
		cfg.ShareDial = Dialer(sc.CoordURL, client)
		if len(opts.DataDirs) > i {
			cfg.DataDir = opts.DataDirs[i]
		}
		svc, err := service.Open(cfg)
		if err != nil {
			for _, s := range sc.Nodes {
				s.Close()
			}
			return nil, fmt.Errorf("cluster sim: node %d: %w", i, err)
		}
		host := fmt.Sprintf("node%d", i)
		tr.Register(host, svc.Handler())
		sc.Nodes = append(sc.Nodes, svc)
		sc.NodeURLs = append(sc.NodeURLs, "http://"+host)
	}
	sc.Coord = New(Config{
		Peers:      sc.NodeURLs,
		Client:     client,
		RetryAfter: time.Second,
	})
	tr.Register("coordinator", sc.Coord.Handler())
	return sc, nil
}

// Kill stops node i the way SIGKILL would: its address stops resolving,
// its in-flight streams break, and its running jobs die. The node stays
// dead.
func (sc *SimCluster) Kill(i int) {
	sc.Transport.SetDown(hostOf(sc.NodeURLs[i]), true)
	for _, j := range sc.Nodes[i].Jobs() {
		if !j.State().Terminal() {
			sc.Nodes[i].Cancel(j.ID) //nolint:errcheck // job may finish concurrently
		}
	}
}

// PartitionCoordinator cuts the coordinator off from everyone.
func (sc *SimCluster) PartitionCoordinator() {
	for _, url := range sc.NodeURLs {
		sc.Transport.SetDown(hostOf(url), true)
	}
}

// HealAll reconnects every node.
func (sc *SimCluster) HealAll() {
	for _, url := range sc.NodeURLs {
		sc.Transport.SetDown(hostOf(url), false)
	}
}

// Close shuts every node down without waiting for queued work.
func (sc *SimCluster) Close() {
	for _, s := range sc.Nodes {
		s.Close()
	}
}

// WaitDone drives coordinator ticks until the cluster job reaches a
// terminal aggregate state, returning its final status. It fails after
// timeout — generous, because a migration adds resume work.
func (sc *SimCluster) WaitDone(id string, timeout time.Duration) (JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for {
		sc.Coord.Tick()
		st, ok := sc.Coord.Status(id)
		if !ok {
			return JobStatus{}, fmt.Errorf("unknown cluster job %s", id)
		}
		if st.State.Terminal() {
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("cluster job %s still %s after %s", id, st.State, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func hostOf(url string) string {
	const scheme = "http://"
	if len(url) > len(scheme) && url[:len(scheme)] == scheme {
		return url[len(scheme):]
	}
	return url
}
