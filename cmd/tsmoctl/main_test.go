package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/tenant"
)

// ctl runs one tsmoctl invocation against the test server and returns its
// stdout.
func ctl(t *testing.T, server string, args ...string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := run(append([]string{"-server", server}, args...), &out)
	return out.String(), err
}

func TestClientAgainstInProcessDaemon(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, Version: "ctl-test"})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	addr := strings.TrimPrefix(srv.URL, "http://")

	out, err := ctl(t, addr, "health")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"ctl-test"`) {
		t.Errorf("health output missing version: %s", out)
	}

	// submit -wait follows the stream to completion and prints events.
	out, err = ctl(t, addr, "submit", "-class", "R1", "-n", "40", "-evals", "1500", "-wait")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "job j") || !strings.Contains(out, "archive_accept") || !strings.Contains(out, "done") {
		t.Errorf("submit -wait output unexpected:\n%s", out)
	}
	id := strings.Fields(out)[1]

	out, err = ctl(t, addr, "status", id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"done"`) || !strings.Contains(out, `"hypervolume"`) {
		t.Errorf("status output unexpected:\n%s", out)
	}

	out, err = ctl(t, addr, "result", id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"solutions"`) {
		t.Errorf("result output unexpected:\n%s", out)
	}

	out, err = ctl(t, addr, "events", id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "queued") {
		t.Errorf("events replay missing lifecycle events:\n%s", out)
	}

	out, err = ctl(t, addr, "list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, id) {
		t.Errorf("list output missing %s:\n%s", id, out)
	}

	// cancel on a terminal job is a no-op that reports the final state.
	out, err = ctl(t, addr, "cancel", id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"done"`) {
		t.Errorf("cancel output unexpected:\n%s", out)
	}

	if _, err := ctl(t, addr, "status", "j999999"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("status of unknown job: %v; want 404 error", err)
	}
	if _, err := ctl(t, addr, "bogus"); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if _, err := ctl(t, addr); err == nil {
		t.Error("missing subcommand accepted")
	}
}

func TestMutateCommand(t *testing.T) {
	svc := service.New(service.Config{Workers: 1, QueueDepth: 4, MaxEvaluations: -1, CheckpointEvery: 3})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	addr := strings.TrimPrefix(srv.URL, "http://")

	// A long blocker occupies the single worker so the target stays queued
	// and the mutation epochs land deterministically.
	out, err := ctl(t, addr, "submit", "-class", "R1", "-n", "40", "-evals", "50000000")
	if err != nil {
		t.Fatal(err)
	}
	blocker := strings.Fields(out)[1]
	out, err = ctl(t, addr, "submit", "-class", "R1", "-n", "40", "-evals", "60000")
	if err != nil {
		t.Fatal(err)
	}
	target := strings.Fields(out)[1]

	// Flag form: two mutations combined into one batch on the next epoch.
	out, err = ctl(t, addr, "mutate", "-cancel", "7", "-demand", "9,5", target)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"epoch"`) {
		t.Errorf("mutate output missing the landed epoch:\n%s", out)
	}

	// Script form: a timed replay pinned to an explicit epoch.
	script := filepath.Join(t.TempDir(), "scenario.json")
	entries := `[{"at_seconds": 0, "epoch": 3, "mutations": [{"version": 1, "op": "cancel_customer", "customer": 3}]}]`
	if err := os.WriteFile(script, []byte(entries), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl(t, addr, "mutate", "-script", script, target); err != nil {
		t.Fatal(err)
	}

	if _, err := ctl(t, addr, "mutate", target); err == nil {
		t.Error("mutate with no mutation flags accepted")
	}

	if _, err := ctl(t, addr, "cancel", blocker); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	var st service.Status
	for {
		out, err = ctl(t, addr, "status", target)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(out), &st); err != nil {
			t.Fatalf("status output is not JSON: %v\n%s", err, out)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("target never finished; last status:\n%s", out)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if st.State != service.StateDone {
		t.Fatalf("target state %s (%s), want done", st.State, st.Error)
	}
	if st.MutationEpochs != 2 || st.MutationsApplied != 3 || st.MutationsRejected != 0 {
		t.Errorf("mutation counters: epochs %d applied %d rejected %d, want 2/3/0",
			st.MutationEpochs, st.MutationsApplied, st.MutationsRejected)
	}
	if st.LastMutationEpoch != 3 {
		t.Errorf("last mutation epoch %d, want 3", st.LastMutationEpoch)
	}
}

// TestFollowAfterDurableRestart follows a job that finished before its
// durable daemon restarted. The job's stream then holds only its recovered
// event, which events and a retried submit -idem -wait must take as
// terminal instead of reconnecting until they give up.
func TestFollowAfterDurableRestart(t *testing.T) {
	cfg := service.Config{Workers: 1, DataDir: t.TempDir()}
	serve := func() (string, func()) {
		svc, err := service.Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(svc.Handler())
		return strings.TrimPrefix(srv.URL, "http://"), func() {
			srv.Close()
			svc.Close()
		}
	}
	submit := []string{"submit", "-class", "R1", "-n", "40", "-evals", "1500", "-idem", "restart-key", "-wait"}
	addr, stop := serve()
	out, err := ctl(t, addr, submit...)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	id := strings.Fields(out)[1]

	addr, stop = serve()
	defer stop()
	for _, args := range [][]string{{"events", id}, submit} {
		out, err = ctl(t, addr, args...)
		if err != nil {
			t.Fatalf("%s after the restart: %v\n%s", args[0], err, out)
		}
		if !strings.Contains(out, "recovered") || !strings.Contains(out, `"state":"done"`) {
			t.Errorf("%s after the restart printed no recovered done event:\n%s", args[0], out)
		}
	}
	if !strings.Contains(out, "job "+id+" done") || !strings.Contains(out, `"solutions"`) {
		t.Errorf("retried submit -wait did not return the recovered job and its result:\n%s", out)
	}
}

func TestVersionFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-version"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) == "" {
		t.Error("-version printed nothing")
	}
}

// TestTenantCommands drives the tenant-facing CLI surfaces against an
// in-process multi-tenant daemon: -token authentication on submission,
// the tenant-grouped list view, the tenants table, the liveness +
// readiness health view, and the 401 surface for a bad key.
func TestTenantCommands(t *testing.T) {
	reg := tenant.NewRegistry(nil)
	reg.Add(tenant.Policy{Name: "acme", Weight: 3, SubmitRate: 2.5}, "k-acme")
	svc := service.New(service.Config{Workers: 1, QueueDepth: 8, MaxEvaluations: -1, Tenants: reg})
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	addr := strings.TrimPrefix(srv.URL, "http://")

	if _, err := ctl(t, addr, "-token", "k-acme", "submit",
		"-class", "R1", "-n", "40", "-evals", "1500", "-wait"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctl(t, addr, "submit",
		"-class", "R1", "-n", "40", "-evals", "1500", "-wait"); err != nil {
		t.Fatal(err)
	}

	out, err := ctl(t, addr, "list")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "tenant acme (1 jobs)") || !strings.Contains(out, "tenant anonymous (1 jobs)") {
		t.Errorf("list does not group by tenant:\n%s", out)
	}

	out, err = ctl(t, addr, "tenants")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "TENANT") || !strings.Contains(out, "SUBMITTED") {
		t.Errorf("tenants table missing its header:\n%s", out)
	}
	var acmeRow string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "acme") {
			acmeRow = line
		}
	}
	f := strings.Fields(acmeRow)
	if len(f) < 6 || f[1] != "3" || f[4] != "1" || !strings.HasPrefix(f[6], "2.5/") {
		t.Errorf("acme row wrong (want weight 3, submitted 1, rate 2.5/...): %q", acmeRow)
	}

	out, err = ctl(t, addr, "health")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"ready": true`) {
		t.Errorf("health does not report readiness:\n%s", out)
	}

	if _, err := ctl(t, addr, "-token", "nope", "list"); err == nil || !strings.Contains(err.Error(), "401") {
		t.Errorf("bad token on list: %v; want a 401 error", err)
	}
}
