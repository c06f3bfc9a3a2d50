// Command tsmoctl is the command-line client of the tsmod solver daemon.
//
//	tsmoctl -server localhost:8080 health
//	tsmoctl submit -class R1 -n 100 -alg asynchronous -procs 3 -evals 50000
//	tsmoctl submit -instance r101.txt -wait
//	tsmoctl status j000001
//	tsmoctl events j000001          # follow the SSE stream
//	tsmoctl result j000001 > front.json
//	tsmoctl mutate -cancel 17 j000001
//	tsmoctl mutate -script rush-hour.json j000001
//	tsmoctl cancel j000001
//	tsmoctl list
//
// Against a multi-tenant daemon, -token authenticates every request and
// tenants shows the per-tenant lanes, quotas and counters (it works
// against a coordinator too, which sums its live members):
//
//	tsmoctl -token k-acme-1 submit -class R1 -n 100 -priority 5 -deadline 30
//	tsmoctl -token k-acme-1 tenants
//	tsmoctl health                  # liveness and readiness, side by side
//
// Pointed at a coordinator (tsmod -cluster-listen), submit fans a job out
// across the cluster and cluster inspects membership:
//
//	tsmoctl -server coord:8080 submit -class R1 -n 400 -cluster-share -shards 3 -wait
//	tsmoctl -server coord:8080 cluster members
//	tsmoctl -server coord:8080 cluster status c000001
package main

import (
	"bytes"
	crand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cluster"
	"repro/internal/dynamic"
	"repro/internal/service"
	"repro/internal/sse"
	"repro/internal/vrptw"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsmoctl:", err)
		os.Exit(1)
	}
}

const usage = `usage: tsmoctl [-server host:port] <command> [flags]

commands:
  submit   submit a job (generator or Solomon-file instance)
  status   print a job's status, live front and quality metrics
  events   follow a job's event stream (SSE)
  result   print a finished job's front as a result file
  mutate   mutate a live job's instance (or replay a timed script)
  cancel   cancel a job
  list     list retained jobs, grouped by tenant
  health   print the daemon's liveness and readiness snapshots
  tenants  per-tenant lanes, quotas and counters (daemon or coordinator)
  cluster  coordinator queries: cluster members | status <id> | result <id>
`

// run parses the global flags and dispatches the subcommand. Split from
// main (with an injectable output) for the client tests.
func run(args []string, out io.Writer) error {
	global := flag.NewFlagSet("tsmoctl", flag.ContinueOnError)
	server := global.String("server", "localhost:8080", "tsmod address (host:port)")
	token := global.String("token", "", "tenant API key, sent as Authorization: Bearer on every request")
	version := global.Bool("version", false, "print the version and exit")
	global.Usage = func() {
		fmt.Fprint(global.Output(), usage)
		global.PrintDefaults()
	}
	if err := global.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(out, buildinfo.Version())
		return nil
	}
	rest := global.Args()
	if len(rest) == 0 {
		global.Usage()
		return fmt.Errorf("missing command")
	}
	c := client{base: "http://" + *server, out: out, token: *token}
	cmd, rest := rest[0], rest[1:]
	switch cmd {
	case "submit":
		return c.submit(rest)
	case "status":
		return c.jobGet(rest, "status", "")
	case "result":
		return c.jobGet(rest, "result", "/result")
	case "mutate":
		return c.mutate(rest)
	case "events":
		return c.events(rest)
	case "cancel":
		return c.cancel(rest)
	case "list":
		return c.list()
	case "health":
		return c.health()
	case "tenants":
		return c.tenants()
	case "cluster":
		return c.cluster(rest)
	default:
		global.Usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

type client struct {
	base  string
	out   io.Writer
	token string
}

// newReq builds a request against the daemon, attaching the tenant
// token (when set) and a JSON content type (when there is a body).
// Every request path funnels through here so -token covers them all.
func (c *client) newReq(method, path string, body []byte) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return req, nil
}

// get pretty-prints the JSON body of one GET endpoint.
func (c *client) get(path string) error {
	resp, err := c.getResp(path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return c.printJSON(resp)
}

func (c *client) getResp(path string) (*http.Response, error) {
	req, err := c.newReq(http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	return http.DefaultClient.Do(req)
}

// printJSON re-indents a JSON response, surfacing API errors as errors.
func (c *client) printJSON(resp *http.Response) error {
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return apiError(resp, body)
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, bytes.TrimSpace(body), "", "  "); err != nil {
		buf.Write(body)
	}
	fmt.Fprintln(c.out, buf.String())
	return nil
}

func apiError(resp *http.Response, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("%s: %s", resp.Status, e.Error)
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
}

func (c *client) submit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	var spec service.JobSpec
	instFile := fs.String("instance", "", "Solomon-format instance file (overrides -class/-n)")
	fs.StringVar(&spec.Instance.Class, "class", "", "generated instance class (R1, C1, RC1, R2, C2, RC2)")
	fs.IntVar(&spec.Instance.N, "n", 100, "generated instance size (customers)")
	fs.Uint64Var(&spec.Instance.Seed, "instance-seed", 1, "generated instance seed")
	fs.StringVar(&spec.Algorithm, "alg", "sequential", "algorithm variant")
	fs.IntVar(&spec.Processors, "procs", 0, "processor count (0 = variant default)")
	fs.Uint64Var(&spec.Seed, "seed", 1, "run seed")
	fs.IntVar(&spec.MaxEvaluations, "evals", 20000, "evaluation budget")
	fs.Float64Var(&spec.MaxSeconds, "max-seconds", 0, "in-run runtime budget (0 = none)")
	fs.Float64Var(&spec.WallSeconds, "wall", 0, "real-time deadline in seconds (0 = server default)")
	fs.IntVar(&spec.GranularK, "granular", 0, "granular neighborhoods: draw moves from the k-nearest arc graph (0 = full)")
	fs.StringVar(&spec.Backend, "backend", "", "runtime backend: sim or goroutine (default sim)")
	fs.IntVar(&spec.SampleEvery, "sample", 0, "record convergence samples every this many evaluations")
	fs.StringVar(&spec.IdempotencyKey, "idem", "", "idempotency key (default: a fresh random key per invocation)")
	fs.IntVar(&spec.Priority, "priority", 0, "lane priority within the tenant (clamped to the tenant policy's max)")
	fs.Float64Var(&spec.DeadlineSeconds, "deadline", 0, "queue-wait deadline in seconds; jobs still queued past it are shed (0 = none)")
	clusterShare := fs.Bool("cluster-share", false, "coordinator submit: shards exchange archive-entering solutions across nodes")
	shards := fs.Int("shards", 0, "coordinator submit: fan the job out to this many sibling shards")
	fs.IntVar(&spec.ShareEvery, "share-every", 0, "cluster-share epoch length in master iterations (0 = solver default)")
	wait := fs.Bool("wait", false, "follow the event stream until the job finishes")
	retries := fs.Int("retries", 4, "transient-failure retries (429/503/5xx/network), exponential backoff")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *instFile != "" {
		text, err := os.ReadFile(*instFile)
		if err != nil {
			return err
		}
		spec.Instance.Solomon = string(text)
		spec.Instance.Class = ""
	} else if spec.Instance.Class == "" {
		spec.Instance.Class = "R1"
	}
	if spec.IdempotencyKey == "" {
		// A fresh key per invocation makes the retry loop below safe: a
		// resubmission whose first attempt actually landed returns the
		// job already created instead of a duplicate.
		spec.IdempotencyKey = randomKey()
	}
	toCluster := *clusterShare || *shards > 0
	var payload any = spec
	if toCluster {
		// A coordinator request: the same spec inside the cluster envelope.
		// The coordinator assigns per-shard seeds, budgets and share fields.
		payload = cluster.JobRequest{JobSpec: spec, ClusterShare: *clusterShare, Shards: *shards}
	}
	body, err := json.Marshal(payload)
	if err != nil {
		return err
	}
	resp, err := doWithRetry(func() (*http.Request, error) {
		return c.newReq(http.MethodPost, "/v1/jobs", body)
	}, *retries, transientStatus)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return apiError(resp, raw)
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		return fmt.Errorf("decoding submit response: %w", err)
	}
	fmt.Fprintf(c.out, "job %s %s\n", sub.ID, sub.State)
	if *wait {
		if toCluster {
			if err := c.followCluster(sub.ID); err != nil {
				return err
			}
		} else if err := c.follow(sub.ID, 0); err != nil {
			return err
		}
		return c.waitResult(sub.ID, *retries)
	}
	return nil
}

// waitResult fetches a finished job's result and prints it. A 409 —
// the terminal event raced the result persistence, or a cluster shard
// is still merging — is transient here and retried honoring the
// server's Retry-After hint, exactly like the submit path honors it on
// 429/503.
func (c *client) waitResult(id string, retries int) error {
	resp, err := doWithRetry(func() (*http.Request, error) {
		return c.newReq(http.MethodGet, "/v1/jobs/"+id+"/result", nil)
	}, retries, func(code int) bool { return code == http.StatusConflict || transientStatus(code) })
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return c.printJSON(resp)
}

// followCluster polls a coordinator job until it is terminal, printing
// aggregate state transitions and a final per-shard summary. Coordinators
// have no SSE stream — shard events live on the member daemons — so the
// cluster wait is a status poll.
func (c *client) followCluster(id string) error {
	last := ""
	for {
		resp, err := c.getResp("/v1/jobs/" + id)
		if err != nil {
			time.Sleep(time.Second)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			time.Sleep(time.Second)
			continue
		}
		if resp.StatusCode >= 400 {
			return apiError(resp, body)
		}
		var st struct {
			State  service.State `json:"state"`
			Shards []struct {
				Shard   int           `json:"shard"`
				Node    string        `json:"node"`
				State   service.State `json:"state"`
				Attempt int           `json:"attempt"`
			} `json:"shards"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("decoding cluster status: %w", err)
		}
		if string(st.State) != last {
			last = string(st.State)
			fmt.Fprintf(c.out, "cluster job %s %s\n", id, st.State)
		}
		if st.State.Terminal() {
			for _, sh := range st.Shards {
				fmt.Fprintf(c.out, "  shard %d %s on %s (attempt %d)\n",
					sh.Shard, sh.State, sh.Node, sh.Attempt)
			}
			return nil
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// cluster dispatches the coordinator-only queries.
func (c *client) cluster(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: tsmoctl cluster members | status <id> | result <id>")
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "members":
		return c.get("/v1/members")
	case "status":
		return c.jobGet(rest, "cluster status", "")
	case "result":
		return c.jobGet(rest, "cluster result", "/result")
	default:
		return fmt.Errorf("unknown cluster subcommand %q (want members, status or result)", sub)
	}
}

// list prints the retained jobs grouped by tenant: one header line per
// tenant lane, then its jobs with priority, state and instance. Jobs
// predating multi-tenancy (no tenant field) group under "anonymous".
func (c *client) list() error {
	resp, err := c.getResp("/v1/jobs")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return apiError(resp, body)
	}
	var lst struct {
		Jobs []service.Status `json:"jobs"`
	}
	if err := json.Unmarshal(body, &lst); err != nil {
		return fmt.Errorf("decoding job list: %w", err)
	}
	byTenant := map[string][]service.Status{}
	for _, st := range lst.Jobs {
		tn := st.Tenant
		if tn == "" {
			tn = "anonymous"
		}
		byTenant[tn] = append(byTenant[tn], st)
	}
	tenants := make([]string, 0, len(byTenant))
	for tn := range byTenant {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	for _, tn := range tenants {
		jobs := byTenant[tn]
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
		fmt.Fprintf(c.out, "tenant %s (%d jobs)\n", tn, len(jobs))
		for _, st := range jobs {
			line := fmt.Sprintf("  %s  %-9s prio=%d  %s %s/p%d evals=%d",
				st.ID, st.State, st.Priority, st.Instance, st.Algorithm, st.Processors, st.Evaluations)
			if st.Error != "" {
				line += "  error: " + st.Error
			}
			fmt.Fprintln(c.out, line)
		}
	}
	if len(tenants) == 0 {
		fmt.Fprintln(c.out, "no jobs")
	}
	return nil
}

// health prints liveness (/v1/healthz — process up, always 200) and
// readiness (/v1/readyz — accepting new work, 503 with reasons while
// draining, recovering or shedding) side by side. A not-ready daemon is
// not an error here: the point of the split is seeing both.
func (c *client) health() error {
	if err := c.get("/v1/healthz"); err != nil {
		return err
	}
	resp, err := c.getResp("/v1/readyz")
	if err != nil {
		// Coordinators predating /readyz (or pointing health at one) have
		// no readiness endpoint; liveness alone is the answer there.
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusNotFound {
		return nil
	}
	var buf bytes.Buffer
	if err := json.Indent(&buf, bytes.TrimSpace(body), "", "  "); err != nil {
		buf.Write(body)
	}
	fmt.Fprintln(c.out, buf.String())
	return nil
}

// tenants renders the per-tenant view — lanes, quotas, counters — as a
// table. The daemon and the coordinator serve the same shape on
// /v1/tenants, so this works against either address.
func (c *client) tenants() error {
	resp, err := c.getResp("/v1/tenants")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		return apiError(resp, body)
	}
	var rep struct {
		Tenants map[string]service.TenantStatus `json:"tenants"`
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("decoding tenants: %w", err)
	}
	names := make([]string, 0, len(rep.Tenants))
	for n := range rep.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(c.out, "%-16s %6s %6s %7s %9s %8s %12s\n",
		"TENANT", "WEIGHT", "QUEUED", "RUNNING", "SUBMITTED", "REJECTED", "RATE(sub/mut)")
	for _, n := range names {
		ts := rep.Tenants[n]
		// An idle tenant has no scheduler lane yet; show its configured
		// weight rather than the lane's zero value.
		weight := ts.Lane.Weight
		if weight == 0 {
			weight = ts.Policy.Weight
		}
		fmt.Fprintf(c.out, "%-16s %6d %6d %7d %9d %8d %8g/%g\n",
			n, weight, ts.Lane.Queued, ts.Lane.Running,
			ts.Submitted, ts.Rejected, ts.Policy.SubmitRate, ts.Policy.MutateRate)
	}
	return nil
}

// mutate schedules live instance mutations on a running job, or — with
// -script — replays a timed scenario of them. Each flag contributes one
// mutation; several may be combined into a single batch, which lands on
// one epoch (checkpoint barrier) atomically.
func (c *client) mutate(args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ContinueOnError)
	epoch := fs.Int("epoch", 0, "pin the batch to this checkpoint barrier (0 = the next one the run reaches)")
	cancelC := fs.Int("cancel", 0, "cancel this customer (index on the current instance)")
	add := fs.String("add", "", "add a customer: x,y,demand,ready,due,service")
	window := fs.String("window", "", "shift a time window: customer,ready,due")
	demand := fs.String("demand", "", "update a demand: customer,value")
	script := fs.String("script", "", "timed replay: JSON file of {at_seconds, epoch, mutations} entries")
	retries := fs.Int("retries", 4, "transient-failure retries (429/503/5xx/network), exponential backoff")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id, err := jobID("mutate", fs.Args())
	if err != nil {
		return err
	}
	if *script != "" {
		return c.mutateScript(id, *script, *retries)
	}
	var muts []dynamic.Mutation
	if *cancelC > 0 {
		muts = append(muts, dynamic.Mutation{Version: dynamic.Version, Op: dynamic.CancelCustomer, Customer: *cancelC})
	}
	if *add != "" {
		f, err := parseFloats("-add", *add, 6)
		if err != nil {
			return err
		}
		site := vrptw.Site{X: f[0], Y: f[1], Demand: f[2], Ready: f[3], Due: f[4], Service: f[5]}
		muts = append(muts, dynamic.Mutation{Version: dynamic.Version, Op: dynamic.AddCustomer, Site: &site})
	}
	if *window != "" {
		f, err := parseFloats("-window", *window, 3)
		if err != nil {
			return err
		}
		muts = append(muts, dynamic.Mutation{Version: dynamic.Version, Op: dynamic.ShiftWindow,
			Customer: int(f[0]), Ready: f[1], Due: f[2]})
	}
	if *demand != "" {
		f, err := parseFloats("-demand", *demand, 2)
		if err != nil {
			return err
		}
		muts = append(muts, dynamic.Mutation{Version: dynamic.Version, Op: dynamic.UpdateDemand,
			Customer: int(f[0]), Demand: f[1]})
	}
	if len(muts) == 0 {
		return fmt.Errorf("mutate: provide at least one of -cancel, -add, -window, -demand (or -script)")
	}
	return c.sendMutations(id, *epoch, muts, *retries)
}

// scriptEntry is one step of a timed mutation replay script: a batch of
// mutations dispatched at_seconds after the replay starts, optionally
// pinned to an explicit epoch so the scenario replays deterministically.
type scriptEntry struct {
	AtSeconds float64            `json:"at_seconds"`
	Epoch     int                `json:"epoch,omitempty"`
	Mutations []dynamic.Mutation `json:"mutations"`
}

// mutateScript replays a timed mutation scenario against a live job:
// entries fire in at_seconds order, each as one PATCH batch.
func (c *client) mutateScript(id, path string, retries int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var entries []scriptEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return fmt.Errorf("parsing script %s: %w", path, err)
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].AtSeconds < entries[j].AtSeconds })
	start := time.Now()
	for i, e := range entries {
		if d := time.Duration(e.AtSeconds*float64(time.Second)) - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		if err := c.sendMutations(id, e.Epoch, e.Mutations, retries); err != nil {
			return fmt.Errorf("script entry %d (t=%gs): %w", i, e.AtSeconds, err)
		}
	}
	return nil
}

// sendMutations PATCHes one mutation batch and prints the server's
// answer (the epoch the batch landed on).
func (c *client) sendMutations(id string, epoch int, muts []dynamic.Mutation, retries int) error {
	body, err := json.Marshal(service.MutateRequest{Epoch: epoch, Mutations: muts})
	if err != nil {
		return err
	}
	resp, err := doWithRetry(func() (*http.Request, error) {
		return c.newReq(http.MethodPatch, "/v1/jobs/"+id+"/instance", body)
	}, retries, transientStatus)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return c.printJSON(resp)
}

// parseFloats splits a comma-separated flag value into exactly n floats.
func parseFloats(flagName, v string, n int) ([]float64, error) {
	parts := strings.Split(v, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("mutate: %s wants %d comma-separated values, got %d", flagName, n, len(parts))
	}
	out := make([]float64, n)
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("mutate: %s value %q: %w", flagName, p, err)
		}
		out[i] = f
	}
	return out, nil
}

// randomKey generates a fresh idempotency key.
func randomKey() string {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		// Fall back to a time-based key; uniqueness per invocation is all
		// the retry loop needs.
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// doWithRetry is the one retry loop every polling path shares: it sends
// freshly built requests until one returns a status transient() rejects,
// backing off with capped exponential delay plus jitter between
// attempts. A Retry-After header on a transient response overrides the
// computed delay. The request is rebuilt per attempt so bodies replay
// from the start.
func doWithRetry(build func() (*http.Request, error), retries int, transient func(int) bool) (*http.Response, error) {
	const (
		baseDelay = 250 * time.Millisecond
		maxDelay  = 5 * time.Second
	)
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		switch {
		case err == nil && !transient(resp.StatusCode):
			return resp, nil
		case err == nil:
			lastErr = fmt.Errorf("server answered %s", resp.Status)
			if attempt >= retries {
				return resp, nil // surface the final transient response
			}
			delay := retryDelay(attempt, baseDelay, maxDelay)
			if d := retryAfter(resp); d > 0 {
				delay = d
			}
			resp.Body.Close()
			time.Sleep(delay)
		default:
			lastErr = err
			if attempt >= retries {
				return nil, fmt.Errorf("after %d attempts: %w", attempt+1, lastErr)
			}
			time.Sleep(retryDelay(attempt, baseDelay, maxDelay))
		}
	}
}

// transientStatus reports whether a response is worth retrying.
func transientStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// retryDelay is capped exponential backoff with full jitter.
func retryDelay(attempt int, base, max time.Duration) time.Duration {
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	return time.Duration(rand.Int63n(int64(d))) + base/2
}

// retryAfter parses a whole-second Retry-After header, 0 when absent.
func retryAfter(resp *http.Response) time.Duration {
	if v := resp.Header.Get("Retry-After"); v != "" {
		if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// jobID extracts the single job-id argument of a subcommand.
func jobID(name string, args []string) (string, error) {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		return "", fmt.Errorf("usage: tsmoctl %s <job-id>", name)
	}
	return args[0], nil
}

func (c *client) jobGet(args []string, name, suffix string) error {
	id, err := jobID(name, args)
	if err != nil {
		return err
	}
	return c.get("/v1/jobs/" + id + suffix)
}

func (c *client) cancel(args []string) error {
	id, err := jobID("cancel", args)
	if err != nil {
		return err
	}
	req, err := c.newReq(http.MethodDelete, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return c.printJSON(resp)
}

func (c *client) events(args []string) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	after := fs.Int("after", 0, "replay events with seq greater than this")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id, err := jobID("events", fs.Args())
	if err != nil {
		return err
	}
	return c.follow(id, *after)
}

// follow prints a job's SSE stream, one "seq name json-fields" line per
// event, until the job is terminal. A dropped connection — daemon restart,
// network blip — is not fatal: follow reconnects with Last-Event-ID set to
// the last event it printed, so the stream resumes without gaps or
// duplicates. It gives up after several consecutive attempts that deliver
// nothing, or on a non-retryable API error (404 after eviction, ...).
func (c *client) follow(id string, after int) error {
	const maxIdleRetries = 5
	failures := 0
	var lastErr error
	for failures <= maxIdleRetries {
		last, terminal, err := c.streamOnce(id, after)
		if terminal {
			return nil
		}
		if err != nil {
			var pe *permanentError
			if errors.As(err, &pe) {
				return pe.err
			}
			lastErr = err
		}
		if last > after {
			failures = 0 // the connection made progress; keep following
			after = last
		} else {
			failures++
		}
		time.Sleep(retryDelay(failures, 250*time.Millisecond, 5*time.Second))
	}
	if lastErr != nil {
		return fmt.Errorf("event stream kept failing: %w", lastErr)
	}
	return fmt.Errorf("event stream for %s ended without a terminal event", id)
}

// permanentError marks an API failure follow must not retry.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }

// streamOnce runs one SSE connection. It returns the last event Seq it
// printed, whether a terminal event was seen — the server ends the stream
// right after delivering it — and the transport error that cut the stream
// short, if any. A terminal event is a done/failed/canceled lifecycle
// event, or the recovered event of a job that was terminal when a durable
// daemon restarted, which is all such a job's stream holds.
func (c *client) streamOnce(id string, after int) (last int, terminal bool, err error) {
	last = after
	req, err := c.newReq(http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return last, false, &permanentError{err}
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(after))
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := (&http.Client{Timeout: 0}).Do(req)
	if err != nil {
		return last, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body) //nolint:errcheck // best-effort error body
		err := apiError(resp, body)
		if transientStatus(resp.StatusCode) {
			return last, false, err
		}
		return last, false, &permanentError{err}
	}
	err = sse.Read(resp.Body, func(f sse.Frame) bool {
		var ev service.Event
		if err := json.Unmarshal(f.Data, &ev); err != nil {
			return true
		}
		fields, err := json.Marshal(ev.Fields)
		if err != nil {
			fields = nil
		}
		fmt.Fprintf(c.out, "%6d %s %-16s %s\n", ev.Seq, ev.TS.Format(time.TimeOnly), ev.Name, fields)
		last = ev.Seq
		state := ev.Name
		if state == "recovered" {
			state, _ = ev.Fields["state"].(string) //nolint:errcheck // absent: not terminal
		}
		terminal = terminal || service.State(state).Terminal()
		return true
	})
	return last, terminal, err
}
