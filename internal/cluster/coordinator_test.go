package cluster

import (
	"encoding/json"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/tenant"
)

// getJSON GETs a coordinator path and decodes its 200 body into v.
func getJSON(t *testing.T, sc *SimCluster, path string, v any) {
	t.Helper()
	resp, err := sc.Client.Get(sc.CoordURL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
}

// waitRunning blocks until a node-local job leaves the queue.
func waitRunning(t *testing.T, j *service.Job) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for j.State() != service.StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started: %s", j.ID, j.State())
		}
		time.Sleep(time.Millisecond)
	}
}

// longSpec is a job that outlasts its test by minutes, so the lanes and
// workers it holds stay put while the test reads them; the sim's Close
// cancels it.
func longSpec() service.JobSpec {
	return service.JobSpec{
		Instance:       service.InstanceSpec{Class: "R1", N: 100, Seed: 7},
		Algorithm:      "sequential",
		Seed:           1,
		MaxEvaluations: 1 << 30,
	}
}

// sumTenants adds the members' own tenant views the way the coordinator
// documents its sum: lanes and counters added, the largest weight, the
// policy of the first member reporting the tenant.
func sumTenants(nodes ...*service.Service) map[string]service.TenantStatus {
	out := make(map[string]service.TenantStatus)
	for _, n := range nodes {
		for name, ts := range n.Tenants() {
			a, ok := out[name]
			if !ok {
				a.Policy = ts.Policy
			}
			a.Lane.Queued += ts.Lane.Queued
			a.Lane.Running += ts.Lane.Running
			a.Lane.Weight = max(a.Lane.Weight, ts.Lane.Weight)
			a.Submitted += ts.Submitted
			a.Rejected += ts.Rejected
			out[name] = a
		}
	}
	return out
}

// TestCoordinatorTenantsSum pins GET /v1/tenants on the coordinator: the
// per-tenant lanes and admission counters of every live member, summed,
// from members that share one tenant registry. A member the coordinator
// has seen die drops out of the sum, and so does one whose tenant poll
// fails.
func TestCoordinatorTenantsSum(t *testing.T) {
	reg := tenant.NewRegistry(nil)
	reg.Add(tenant.Policy{Name: "acme", Weight: 3, MaxQueued: 1}, "k-acme")
	reg.Add(tenant.Policy{Name: "beta"}, "k-beta")
	sc := newSim(t, SimOptions{Nodes: 2, Workers: 1, Service: service.Config{Tenants: reg}})

	// node0: acme runs one job, queues one, and is refused a third by
	// its max_queued; node1: beta runs one job and acme queues one.
	run0, err := sc.Nodes[0].SubmitAs("acme", longSpec())
	if err != nil {
		t.Fatal(err)
	}
	run1, err := sc.Nodes[1].SubmitAs("beta", longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, run0)
	waitRunning(t, run1)
	for i, tn := range []string{"acme", "acme"} {
		if _, err := sc.Nodes[i].SubmitAs(tn, longSpec()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sc.Nodes[0].SubmitAs("acme", longSpec()); err == nil {
		t.Fatal("acme's second queued job on node0 was admitted past max_queued 1")
	}

	var body struct {
		Tenants map[string]service.TenantStatus `json:"tenants"`
	}
	getJSON(t, sc, "/v1/tenants", &body)
	if want := sumTenants(sc.Nodes...); !reflect.DeepEqual(body.Tenants, want) {
		t.Fatalf("cluster tenants = %+v\nwant the members' sum %+v", body.Tenants, want)
	}
	acme := body.Tenants["acme"]
	if acme.Lane != (service.LaneStat{Queued: 2, Running: 1, Weight: 3}) || acme.Submitted != 3 || acme.Rejected != 1 {
		t.Errorf("acme = %+v; want lane 2 queued, 1 running, weight 3, 3 submitted, 1 rejected", acme)
	}
	if beta := body.Tenants["beta"]; beta.Lane.Running != 1 || beta.Submitted != 1 {
		t.Errorf("beta = %+v; want 1 running, 1 submitted", beta)
	}

	// node1 dies and a tick sees it: the sum is node0's view alone.
	sc.Kill(1)
	sc.Coord.Tick()
	body.Tenants = nil
	getJSON(t, sc, "/v1/tenants", &body)
	if want := sumTenants(sc.Nodes[0]); !reflect.DeepEqual(body.Tenants, want) {
		t.Fatalf("tenants after node1 died = %+v\nwant node0's %+v", body.Tenants, want)
	}

	// node0 drops off the network before any tick notices: its poll
	// fails and it is left out too.
	sc.Transport.SetDown(hostOf(sc.NodeURLs[0]), true)
	body.Tenants = nil
	getJSON(t, sc, "/v1/tenants", &body)
	if len(body.Tenants) != 0 {
		t.Fatalf("tenants with no reachable member = %+v; want none", body.Tenants)
	}
}

// TestCoordinatorHealthz pins the coordinator's own GET /v1/healthz: its
// role, the member and live-member counts as of the last tick, and the
// cluster jobs it tracks.
func TestCoordinatorHealthz(t *testing.T) {
	sc := newSim(t, SimOptions{Nodes: 2, Workers: 1})
	type healthz struct {
		Status  string `json:"status"`
		Role    string `json:"role"`
		Version string `json:"version"`
		Members int    `json:"members"`
		Alive   int    `json:"alive"`
		Jobs    int    `json:"jobs"`
	}
	var got healthz
	getJSON(t, sc, "/v1/healthz", &got)
	if want := (healthz{Status: "ok", Role: "coordinator", Members: 2, Alive: 2}); got != want {
		t.Fatalf("healthz = %+v, want %+v", got, want)
	}

	id := submit(t, sc, JobRequest{JobSpec: service.JobSpec{
		Instance:       service.InstanceSpec{Class: "R1", N: 30, Seed: 1},
		Algorithm:      "sequential",
		Seed:           1,
		MaxEvaluations: 800,
	}})
	st, err := sc.WaitDone(id, 30*time.Second)
	if err != nil || st.State != service.StateDone {
		t.Fatalf("job: %v %v", st.State, err)
	}
	sc.Kill(1)
	sc.Coord.Tick()
	got = healthz{}
	getJSON(t, sc, "/v1/healthz", &got)
	if want := (healthz{Status: "ok", Role: "coordinator", Members: 2, Alive: 1, Jobs: 1}); got != want {
		t.Fatalf("healthz after node1 died = %+v, want %+v", got, want)
	}
}

// TestClusterShareSiblingCanceled cancels a share shard on its node
// while its sibling waits for it at a share epoch. The sibling's
// follower sees the shard's feed end, asks the coordinator, learns the
// shard is terminal once a tick has polled it, and marks it done, so the
// sibling's gather stops waiting and the sibling searches out its budget
// alone. A follower that never marks the shard done leaves the sibling
// blocked at the epoch until the test times out.
func TestClusterShareSiblingCanceled(t *testing.T) {
	sc := newSim(t, SimOptions{Nodes: 2, Workers: 1, CheckpointEvery: 10})

	// Occupy node1's only worker, so both shards land on node0: shard 0
	// runs, shard 1 waits in the queue behind it, and no node is idle
	// for a steal.
	blocker, err := sc.Nodes[1].Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, blocker)
	sc.Coord.Tick()

	req := shareReq(60, 2, 20000, 99)
	id := submit(t, sc, req)
	st, _ := sc.Coord.Status(id)
	for _, sh := range st.Shards {
		if sh.Node != sc.NodeURLs[0] {
			t.Fatalf("shard %d placed on %s; want both on %s", sh.Shard, sh.Node, sc.NodeURLs[0])
		}
	}
	shard0, _ := sc.Nodes[0].Job(st.Shards[0].JobID)
	shard1 := st.Shards[1].JobID

	// Shard 0 stops at its first epoch (ShareEvery iterations), where it
	// waits for shard 1's batch.
	deadline := time.Now().Add(60 * time.Second)
	for shard0.Status().Iterations < int64(req.ShareEvery) {
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 never reached its first share epoch: %+v", shard0.Status())
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := sc.Nodes[0].Cancel(shard1); err != nil {
		t.Fatal(err)
	}

	deadline = time.Now().Add(60 * time.Second)
	for {
		sc.Coord.Tick()
		st, _ = sc.Coord.Status(id)
		if st.Shards[0].State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shard 0 still waits on canceled shard 1: %+v", st.Shards)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != service.StateCanceled || st.Shards[0].State != service.StateDone ||
		st.Shards[1].State != service.StateCanceled || st.Shards[1].Attempt != 0 {
		t.Fatalf("cluster job %s, shards %+v; want canceled, shard 0 done, shard 1 canceled in place", st.State, st.Shards)
	}
	if got, want := shard0.Status().Evaluations, int64(req.MaxEvaluations/2); got < want {
		t.Errorf("shard 0 ran %d evaluations; want its whole budget of %d", got, want)
	}
}
