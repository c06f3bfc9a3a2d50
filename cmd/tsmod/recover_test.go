package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/resultio"
	"repro/internal/service"
)

// TestHelperDaemon is not a test: re-executed by TestKill9Recovery with
// TSMOD_HELPER=1 it becomes the daemon process, so the parent can kill -9
// a real tsmod rather than a goroutine.
func TestHelperDaemon(t *testing.T) {
	if os.Getenv("TSMOD_HELPER") != "1" {
		t.Skip("not a test: daemon body for the kill -9 e2e")
	}
	cfg := service.Config{
		Workers:         1,
		DataDir:         os.Getenv("TSMOD_DATA_DIR"),
		CheckpointEvery: 3,
		Version:         "kill9-e2e",
	}
	if err := run(os.Getenv("TSMOD_ADDR"), cfg, 30*time.Second, "warn"); err != nil {
		fmt.Fprintln(os.Stderr, "helper daemon:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// startDaemon re-execs the test binary as a tsmod daemon on addr backed by
// dataDir and waits until it serves /v1/healthz.
func startDaemon(t *testing.T, addr, dataDir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestHelperDaemon")
	cmd.Env = append(os.Environ(),
		"TSMOD_HELPER=1", "TSMOD_ADDR="+addr, "TSMOD_DATA_DIR="+dataDir)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	cmd.Process.Kill() //nolint:errcheck // unwind
	t.Fatal("daemon never became healthy")
	return nil
}

func submitSpec(t *testing.T, base string, spec service.JobSpec) service.SubmitResponse {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub service.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	return sub
}

func getJSON[T any](t *testing.T, url string) T {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitTerminal(t *testing.T, base, id string) service.Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getJSON[service.Status](t, base+"/v1/jobs/"+id)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return service.Status{}
}

// TestKill9Recovery is the chaos acceptance test: a durable daemon with a
// running job (checkpointed) and a queued job behind it is killed with
// SIGKILL mid-run. A restarted daemon on the same data directory must
// bring every job to a terminal state with no duplicates and no lost
// results, the interrupted job resuming to a front bit-identical to an
// uninterrupted reference run, and a retried submission with the original
// idempotency key must map to the recovered job rather than a new one.
func TestKill9Recovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	dataDir := t.TempDir()
	addr := freePort(t)
	base := "http://" + addr
	cmd := startDaemon(t, addr, dataDir)

	longSpec := service.JobSpec{
		Instance:       service.InstanceSpec{Class: "R1", N: 40, Seed: 3},
		Algorithm:      "asynchronous",
		Processors:     3,
		MaxEvaluations: 400_000,
		Seed:           7,
		IdempotencyKey: "kill9-long",
	}
	quickSpec := service.JobSpec{
		Instance:       service.InstanceSpec{Class: "R1", N: 40, Seed: 3},
		MaxEvaluations: 2_000,
		Seed:           11,
		IdempotencyKey: "kill9-quick",
	}
	long := submitSpec(t, base, longSpec)   // occupies the single worker
	quick := submitSpec(t, base, quickSpec) // waits in the queue

	// Kill once the running job's first checkpoint is durably on disk.
	ckptPath := filepath.Join(dataDir, "jobs", long.ID, "ckpt.json")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckptPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill() //nolint:errcheck // unwind
			t.Fatal("no checkpoint appeared before the kill window closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no defer
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // killed: non-zero by design

	// Restart on the same data directory.
	cmd2 := startDaemon(t, addr, dataDir)
	defer func() {
		cmd2.Process.Kill() //nolint:errcheck // test teardown
		cmd2.Wait()         //nolint:errcheck // as above
	}()

	health := getJSON[service.Stats](t, base+"/v1/healthz")
	if !health.Durable {
		t.Error("restarted daemon does not report durability")
	}
	if health.Requeued != 2 {
		t.Errorf("requeued jobs: got %d, want 2 (the running and the queued one)", health.Requeued)
	}

	// Both jobs must reach done; the job list must hold exactly the two
	// originals — no duplicates, nothing lost.
	for _, id := range []string{long.ID, quick.ID} {
		if st := waitTerminal(t, base, id); st.State != service.StateDone {
			t.Errorf("job %s: state %s (%s), want done", id, st.State, st.Error)
		}
	}
	list := getJSON[map[string][]service.Status](t, base+"/v1/jobs")
	if n := len(list["jobs"]); n != 2 {
		t.Errorf("job list has %d entries after recovery, want 2", n)
	}

	// A client retry with the original idempotency key maps to the
	// recovered job instead of submitting a duplicate.
	if re := submitSpec(t, base, longSpec); re.ID != long.ID {
		t.Errorf("idempotent resubmission created %s, want %s", re.ID, long.ID)
	}

	// Determinism: the resumed run's persisted front equals an
	// uninterrupted reference run of the same spec under the same durable
	// configuration (checkpointing is part of the trajectory).
	got := getJSON[resultio.FrontFile](t, base+"/v1/jobs/"+long.ID+"/result")
	refSvc, err := service.Open(service.Config{Workers: 1, DataDir: t.TempDir(), CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer refSvc.Close()
	refJob, err := refSvc.Submit(longSpec)
	if err != nil {
		t.Fatal(err)
	}
	refDeadline := time.Now().Add(60 * time.Second)
	for !refJob.State().Terminal() {
		if time.Now().After(refDeadline) {
			t.Fatal("reference job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	ref := refJob.Result()
	if ref == nil {
		t.Fatal("reference job produced no result")
	}
	if got.Evaluations != ref.Evaluations {
		t.Errorf("evaluations: recovered %d, reference %d", got.Evaluations, ref.Evaluations)
	}
	if len(got.Solutions) != len(ref.Solutions) {
		t.Fatalf("front size: recovered %d, reference %d", len(got.Solutions), len(ref.Solutions))
	}
	for i, sol := range got.Solutions {
		want := ref.Solutions[i]
		if sol.Distance != want.Distance || sol.Vehicles != want.Vehicles || sol.Tardiness != want.Tardiness {
			t.Errorf("front[%d] objectives: recovered %+v, reference %+v", i, sol, want)
		}
		if !reflect.DeepEqual(sol.Routes, want.Routes) {
			t.Errorf("front[%d] routes diverged after resume", i)
		}
	}
}
