package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/resultio"
	"repro/internal/service"
	"repro/internal/solution"
	"repro/internal/tenant"
)

func init() {
	// Migration gaps in the sim heal within a tick or two; waiting the
	// production 200ms per reconnect attempt only slows the suite down.
	shareRetryDelay = 5 * time.Millisecond
}

// newSim builds a SimCluster for tests, torn down with the test.
func newSim(t *testing.T, opts SimOptions) *SimCluster {
	t.Helper()
	if opts.Service.MaxEvaluations == 0 {
		opts.Service.MaxEvaluations = -1 // don't clamp test budgets
	}
	if opts.Service.QueueDepth == 0 {
		opts.Service.QueueDepth = 16
	}
	sc, err := NewSim(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sc.Close)
	return sc
}

// submit POSTs a cluster job through the coordinator's HTTP API and
// returns the cluster job id.
func submit(t *testing.T, sc *SimCluster, req JobRequest) string {
	t.Helper()
	id, resp := trySubmit(t, sc, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cluster submit: %s", resp.Status)
	}
	return id
}

func trySubmit(t *testing.T, sc *SimCluster, req JobRequest) (string, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := sc.Client.Post(sc.CoordURL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", resp
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub.ID, resp
}

// mergedResult fetches the merged front over HTTP once the job is done.
func mergedResult(t *testing.T, sc *SimCluster, id string) *resultio.FrontFile {
	t.Helper()
	resp, err := sc.Client.Get(sc.CoordURL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merged result: %s", resp.Status)
	}
	ff, err := resultio.Read(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return ff
}

// shareReq is the canonical 3-shard cluster-share request over the
// 400-customer benchmark instance used by the golden tests.
func shareReq(n, shards, evals int, seed uint64) JobRequest {
	return JobRequest{
		JobSpec: service.JobSpec{
			Instance:       service.InstanceSpec{Class: "R1", N: n, Seed: 7},
			Algorithm:      "sequential",
			Seed:           seed,
			MaxEvaluations: evals,
			ShareEvery:     5,
		},
		ClusterShare: true,
		Shards:       shards,
	}
}

// runClusterShare runs one cluster-share job on a fresh 3-node sim and
// returns its merged front. For multi-shard requests it also asserts that
// share batches actually crossed nodes — a sharing test that silently
// exchanged nothing would prove nothing.
func runClusterShare(t *testing.T, req JobRequest) *resultio.FrontFile {
	t.Helper()
	sc := newSim(t, SimOptions{Nodes: 3, Workers: 2, CheckpointEvery: 10})
	id := submit(t, sc, req)
	st, err := sc.WaitDone(id, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("cluster job finished %s: %+v", st.State, st.Shards)
	}
	if req.ClusterShare && req.Shards > 1 {
		if got := peerBatches(t, sc); got == 0 {
			t.Error("cluster-share job exchanged no cross-node batches")
		}
	}
	return mergedResult(t, sc, id)
}

// peerBatches sums the per-peer share-batch counters over every node's
// job telemetry.
func peerBatches(t *testing.T, sc *SimCluster) int64 {
	t.Helper()
	var total int64
	for _, url := range sc.NodeURLs {
		resp, err := sc.Client.Get(url + "/telemetry")
		if err != nil {
			continue // a killed node is unreachable; its counters died with it
		}
		var body struct {
			Jobs map[string]struct {
				PeerShares map[string]struct {
					Batches int64 `json:"batches"`
				} `json:"peer_shares"`
			} `json:"jobs"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("telemetry from %s: %v", url, err)
		}
		for _, j := range body.Jobs {
			for _, p := range j.PeerShares {
				total += p.Batches
			}
		}
	}
	return total
}

// TestClusterShareGolden is the 3-node acceptance test: one 400-customer
// job fanned out with cluster-share on, replayed on a second fresh
// cluster, must produce a bit-identical merged front (routes included).
func TestClusterShareGolden(t *testing.T) {
	req := shareReq(400, 3, 18000, 4242)
	first := runClusterShare(t, req)
	second := runClusterShare(t, req)
	if len(first.Solutions) == 0 {
		t.Fatal("merged front is empty")
	}
	if !reflect.DeepEqual(first.Solutions, second.Solutions) {
		t.Fatalf("cluster-share replay diverged:\nfirst:  %+v\nsecond: %+v", first.Solutions, second.Solutions)
	}
	validateFront(t, first, 400)
}

// validateFront checks every merged solution is a complete route plan:
// each customer exactly once.
func validateFront(t *testing.T, ff *resultio.FrontFile, n int) {
	t.Helper()
	for si, rec := range ff.Solutions {
		seen := make(map[int]bool, n)
		for _, route := range rec.Routes {
			for _, id := range route {
				if id < 1 || id > n || seen[id] {
					t.Fatalf("solution %d: customer %d repeated or out of range", si, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != n {
			t.Fatalf("solution %d: %d of %d customers routed", si, len(seen), n)
		}
	}
}

// TestClusterShareDominatesSingleNode pits the cluster against one node
// with the same total budget: every point of the single-node front must
// be weakly dominated by (or equal to) some point of the merged front.
// Both runs are deterministic, so this is a stable golden comparison, not
// a statistical one.
func TestClusterShareDominatesSingleNode(t *testing.T) {
	const totalEvals = 18000
	req := shareReq(400, 3, totalEvals, 4242)
	merged := runClusterShare(t, req)

	single := runClusterShare(t, JobRequest{
		JobSpec: service.JobSpec{
			Instance:       req.Instance,
			Algorithm:      "sequential",
			Seed:           req.Seed,
			MaxEvaluations: totalEvals,
		},
		Shards: 1,
	})

	obj := func(r resultio.SolutionRecord) solution.Objectives {
		return solution.Objectives{Distance: r.Distance, Vehicles: r.Vehicles, Tardiness: r.Tardiness}
	}
	for _, s := range single.Solutions {
		covered := false
		for _, m := range merged.Solutions {
			if obj(m).WeaklyDominates(obj(s)) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("single-node point %+v not weakly dominated by any merged point", obj(s))
		}
	}
}

// killReq is a longer 2-shard job over a smaller instance: enough epochs
// and checkpoints that a mid-job kill lands while both shards run.
func killReq(seed uint64) JobRequest {
	return JobRequest{
		JobSpec: service.JobSpec{
			Instance:       service.InstanceSpec{Class: "R1", N: 100, Seed: 7},
			Algorithm:      "sequential",
			Seed:           seed,
			MaxEvaluations: 40000,
			ShareEvery:     5,
		},
		ClusterShare: true,
		Shards:       2,
	}
}

// runKillScenario kills the node owning shard 1 once the coordinator has
// cached a checkpoint for it, then waits the job out. The returned front
// must match the undisturbed run's: migration resumes the shard from its
// checkpoint and the epoch exchange replays bit-identically, so the kill
// is trajectory-transparent.
func runKillScenario(t *testing.T, req JobRequest) *resultio.FrontFile {
	t.Helper()
	sc := newSim(t, SimOptions{Nodes: 3, Workers: 2, CheckpointEvery: 10})
	id := submit(t, sc, req)

	// Tick until shard 1's checkpoint is cached, then kill its owner
	// (unless the shard finished first, in which case there is nothing
	// left to kill and the run degenerates to the undisturbed one).
	deadline := time.Now().Add(60 * time.Second)
	killed := false
	for time.Now().Before(deadline) {
		sc.Coord.Tick()
		st, ok := sc.Coord.Status(id)
		if !ok {
			t.Fatalf("cluster job %s vanished", id)
		}
		sh := st.Shards[1]
		if sh.State.Terminal() {
			break
		}
		if sh.Barrier > 0 && sh.Node != "" {
			for i, url := range sc.NodeURLs {
				if url == sh.Node {
					t.Logf("killing %s (owner of shard 1, checkpoint barrier %d)", url, sh.Barrier)
					sc.Kill(i)
					killed = true
				}
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !killed {
		t.Log("shard finished before a checkpoint was cached; kill skipped")
	}

	st, err := sc.WaitDone(id, 120*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != service.StateDone {
		t.Fatalf("cluster job finished %s after kill: %+v", st.State, st.Shards)
	}
	if killed {
		migrated := false
		for _, sh := range st.Shards {
			if sh.Attempt > 0 {
				migrated = true
			}
		}
		if !migrated {
			t.Error("node was killed but no shard reports a migration attempt")
		}
	}
	return mergedResult(t, sc, id)
}

// TestClusterKillMemberMigrates is the node-death chaos scenario: kill a
// member mid-job; the checkpoint migrates and the job finishes on a
// survivor with the exact front an undisturbed run produces — run twice
// for bit-identity.
func TestClusterKillMemberMigrates(t *testing.T) {
	req := killReq(99)
	baseline := runClusterShare(t, req)
	validateFront(t, baseline, 100)

	first := runKillScenario(t, req)
	second := runKillScenario(t, req)
	if !reflect.DeepEqual(first.Solutions, baseline.Solutions) {
		t.Fatalf("killed run diverged from undisturbed run:\nkilled:   %+v\nbaseline: %+v", first.Solutions, baseline.Solutions)
	}
	if !reflect.DeepEqual(first.Solutions, second.Solutions) {
		t.Fatalf("kill scenario not bit-identical across repetitions")
	}
}

// TestCoordinatorPartition is the partition chaos scenario: with every
// member unreachable the coordinator sheds submissions with 503 +
// Retry-After; a job already in flight keeps running on its node and is
// not lost — after the heal it completes and serves its merged result.
func TestCoordinatorPartition(t *testing.T) {
	run := func() *resultio.FrontFile {
		sc := newSim(t, SimOptions{Nodes: 2, Workers: 2, CheckpointEvery: 10})
		req := JobRequest{
			JobSpec: service.JobSpec{
				Instance:       service.InstanceSpec{Class: "R1", N: 50, Seed: 7},
				Algorithm:      "sequential",
				Seed:           7,
				MaxEvaluations: 20000,
			},
		}
		id := submit(t, sc, req)

		sc.PartitionCoordinator()
		sc.Coord.Tick() // observe the partition
		if _, resp := trySubmit(t, sc, req); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit during partition: %s; want 503", resp.Status)
		} else if resp.Header.Get("Retry-After") == "" {
			t.Fatal("503 during partition carries no Retry-After")
		}

		sc.HealAll()
		st, err := sc.WaitDone(id, 60*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != service.StateDone {
			t.Fatalf("job lost to the partition: %s", st.State)
		}
		retry := submit(t, sc, req) // the shed submission, retried after heal
		if st, err := sc.WaitDone(retry, 60*time.Second); err != nil || st.State != service.StateDone {
			t.Fatalf("post-heal submission failed: %v %v", st.State, err)
		}
		return mergedResult(t, sc, id)
	}
	first := run()
	second := run()
	if !reflect.DeepEqual(first.Solutions, second.Solutions) {
		t.Fatal("partition scenario not bit-identical across repetitions")
	}
}

// TestClusterSteal drives the work-stealing path: two one-worker nodes,
// three jobs — the third queues behind the first on node0 while node1
// drains its small job and goes idle; the next tick moves the queued job
// over.
func TestClusterSteal(t *testing.T) {
	sc := newSim(t, SimOptions{Nodes: 2, Workers: 1, CheckpointEvery: 10})
	spec := func(evals int) JobRequest {
		return JobRequest{JobSpec: service.JobSpec{
			Instance:       service.InstanceSpec{Class: "R1", N: 100, Seed: 7},
			Algorithm:      "sequential",
			Seed:           1,
			MaxEvaluations: evals,
		}}
	}
	big1 := submit(t, sc, spec(400000)) // node0, runs long
	tiny := submit(t, sc, spec(2000))   // node1, drains fast
	queued := submit(t, sc, spec(2000)) // node0, queued behind big1

	if st, err := sc.WaitDone(tiny, 60*time.Second); err != nil || st.State != service.StateDone {
		t.Fatalf("tiny job: %v %v", st.State, err)
	}
	// The steal happens in a Tick — possibly one WaitDone already drove.
	// The evidence is on the job: a new attempt, re-placed on the idle
	// node, while the long job still occupies node0's only worker.
	st, err := sc.WaitDone(queued, 60*time.Second)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("stolen job: %v %v", st.State, err)
	}
	if st.Shards[0].Node != sc.NodeURLs[1] {
		t.Errorf("stolen job ran on %s; want %s", st.Shards[0].Node, sc.NodeURLs[1])
	}
	if st.Shards[0].Attempt == 0 {
		t.Error("stolen shard reports no new attempt")
	}
	// Don't sit out the long job's full budget during teardown.
	if bst, ok := sc.Coord.Status(big1); ok {
		sc.Nodes[0].Cancel(bst.Shards[0].JobID) //nolint:errcheck // best-effort teardown speedup
	}
}

// TestClusterStealShareShard steals a QUEUED share shard while its
// sibling is already blocked at the epoch barrier. Canceling the queued
// shard on the old owner must seal that owner's share feed (the job
// never ran, so armShares' cleanup never fires), and the sibling's
// follower must treat the resulting done event as "this incarnation
// ended" — confirm with the coordinator that the shard is not terminal,
// re-dial, and land on the new owner through the proxy. Either half
// missing deadlocks the barrier forever.
func TestClusterStealShareShard(t *testing.T) {
	sc := newSim(t, SimOptions{Nodes: 2, Workers: 1, CheckpointEvery: 10})

	// Occupy node1's only worker so the coordinator places both share
	// shards on node0.
	blocker, err := sc.Nodes[1].Submit(service.JobSpec{
		Instance:       service.InstanceSpec{Class: "R1", N: 100, Seed: 7},
		Algorithm:      "sequential",
		Seed:           1,
		MaxEvaluations: 400000,
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for blocker.State() != service.StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("blocker never started: %s", blocker.State())
		}
		time.Sleep(time.Millisecond)
	}
	sc.Coord.Tick() // refresh member stats: node1 busy, node0 free

	// Two shards, one worker: shard 0 runs (and stalls at the epoch-1
	// barrier — the budget is large enough to reach it), shard 1 sits
	// queued behind it on the same node.
	id := submit(t, sc, shareReq(60, 2, 20000, 99))
	deadline = time.Now().Add(60 * time.Second)
	for {
		sc.Coord.Tick()
		st, ok := sc.Coord.Status(id)
		if !ok {
			t.Fatalf("cluster job %s vanished", id)
		}
		if st.Shards[0].State == service.StateRunning && st.Shards[1].State == service.StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached running+queued: %+v", st.Shards)
		}
		time.Sleep(time.Millisecond)
	}

	// Free node1; the next ticks steal queued shard 1 over to it, which
	// is the only way the barrier on shard 0 can ever complete.
	if _, err := sc.Nodes[1].Cancel(blocker.ID); err != nil {
		t.Fatal(err)
	}
	st, err := sc.WaitDone(id, 60*time.Second)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("share job after steal: %v %v", st.State, err)
	}
	if st.Shards[1].Node != sc.NodeURLs[1] || st.Shards[1].Attempt == 0 {
		t.Errorf("shard 1 = %+v; want stolen to %s with a fresh attempt", st.Shards[1], sc.NodeURLs[1])
	}

	// Shard 0 must have received shard 1's post-steal epochs: shard 1
	// never published before the steal, so a follower that wrongly
	// marked the stolen sibling done would finish with zero batches.
	resp, err := sc.Client.Get(sc.NodeURLs[0] + "/telemetry")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Jobs map[string]struct {
			PeerShares map[string]struct {
				Batches int64 `json:"batches"`
			} `json:"peer_shares"`
		} `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := body.Jobs[st.Shards[0].JobID].PeerShares["shard-1"].Batches; got == 0 {
		t.Error("shard 0 received no batches from the stolen shard 1")
	}
	validateFront(t, mergedResult(t, sc, id), 60)
}

// TestMergeFronts pins the merge semantics: dominated points drop,
// duplicates collapse, order is the objective sort.
func TestMergeFronts(t *testing.T) {
	rec := func(d, v, td float64) resultio.SolutionRecord {
		return resultio.SolutionRecord{Distance: d, Vehicles: v, Tardiness: td}
	}
	got := MergeFronts([]resultio.SolutionRecord{
		rec(10, 3, 0),
		rec(12, 3, 0), // dominated by the first
		rec(10, 3, 0), // duplicate
		rec(8, 4, 0),  // trade-off: stays
	})
	want := []resultio.SolutionRecord{rec(8, 4, 0), rec(10, 3, 0)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MergeFronts = %+v, want %+v", got, want)
	}
}

// TestSubmitValidation pins the cluster request guards.
func TestSubmitValidation(t *testing.T) {
	sc := newSim(t, SimOptions{Nodes: 1, Workers: 1})
	cases := []JobRequest{
		{JobSpec: service.JobSpec{Instance: service.InstanceSpec{Class: "R1", N: 30, Seed: 1}, ShareGroup: "x"}},
		{JobSpec: service.JobSpec{Instance: service.InstanceSpec{Class: "R1", N: 30, Seed: 1}, Algorithm: "combined"}, ClusterShare: true, Shards: 2},
		{JobSpec: service.JobSpec{Instance: service.InstanceSpec{Class: "R1", N: 30, Seed: 1}, Resume: json.RawMessage(`{}`)}},
	}
	for i, req := range cases {
		if _, resp := trySubmit(t, sc, req); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: %s; want 400", i, resp.Status)
		}
	}
	// A valid request followed by anything but white space is not one
	// request.
	resp, err := sc.Client.Post(sc.CoordURL+"/v1/jobs", "application/json",
		strings.NewReader(`{"instance":{"class":"R1","n":30,"seed":1}} {"not":"a job"} garbage`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing bytes: %s; want 400", resp.Status)
	}
}

// TestSubmitMemberRejectionPropagates pins the verdict split: a spec the
// members themselves reject (over their evaluation cap here) must come
// back to the caller as a 400 — not mark healthy nodes dead and 503 —
// and the cluster must keep accepting valid work afterwards.
func TestSubmitMemberRejectionPropagates(t *testing.T) {
	sc := newSim(t, SimOptions{
		Nodes: 2, Workers: 1,
		Service: service.Config{MaxEvaluations: 1000, QueueDepth: 16},
	})
	over := JobRequest{JobSpec: service.JobSpec{
		Instance:       service.InstanceSpec{Class: "R1", N: 30, Seed: 1},
		Algorithm:      "sequential",
		Seed:           1,
		MaxEvaluations: 5000,
	}, Shards: 2}
	if _, resp := trySubmit(t, sc, over); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("member-rejected spec answered %s; want 400", resp.Status)
	}
	ok := over
	ok.MaxEvaluations = 800
	id := submit(t, sc, ok)
	if st, err := sc.WaitDone(id, 30*time.Second); err != nil || st.State != service.StateDone {
		t.Fatalf("valid job after rejection: state %v err %v", st.State, err)
	}
}

// TestSubmitProxyRetryAfterVerbatim pins the backpressure relay: when
// every live member refuses a submission — a tenant rate limit (429) or
// load shedding (503) — the coordinator's submit proxy answers with the
// members' own status and Retry-After verbatim, not its own default
// hint, so callers back off exactly as long as the member asked for.
func TestSubmitProxyRetryAfterVerbatim(t *testing.T) {
	// Frozen clock: acme's bucket holds one token and refills at 0.25/s,
	// so the refusal hint is exactly 4 seconds — distinguishable from
	// both the members' configured 7s default and the coordinator's 1s.
	frozen := time.Unix(1_700_000_000, 0)
	reg := tenant.NewRegistry(func() time.Time { return frozen })
	reg.Add(tenant.Policy{Name: "acme", SubmitRate: 0.25, SubmitBurst: 1}, "k-acme")
	sc := newSim(t, SimOptions{
		Nodes: 2, Workers: 1,
		Service: service.Config{Tenants: reg, RetryAfter: 7 * time.Second},
	})

	req := JobRequest{JobSpec: service.JobSpec{
		Instance:       service.InstanceSpec{Class: "R1", N: 30, Seed: 1},
		Algorithm:      "sequential",
		Seed:           1,
		MaxEvaluations: 800,
	}}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	submitAs := func(token string) *http.Response {
		t.Helper()
		hreq, err := http.NewRequest(http.MethodPost, sc.CoordURL+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", "application/json")
		if token != "" {
			hreq.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := sc.Client.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp
	}

	// The burst token admits one submission; the tenant registry is
	// shared by both members, so the second finds every lane dry.
	if resp := submitAs("k-acme"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first acme submission: %s, want 202", resp.Status)
	}
	resp := submitAs("k-acme")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited submission through the proxy: %s, want 429", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "4" {
		t.Errorf("proxied 429 Retry-After %q, want the member's verbatim \"4\"", ra)
	}

	// Load shedding: every member answers 503 with its configured 7s
	// hint; the proxy must relay that, not its own 1s default.
	for _, n := range sc.Nodes {
		n.SetShed(true)
	}
	resp = submitAs("")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission against shedding members: %s, want 503", resp.Status)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("proxied 503 Retry-After %q, want the member's verbatim \"7\"", ra)
	}
}
