package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/resultio"
	"repro/internal/service"
)

func patchMutations(t *testing.T, base, id string, epoch int, muts []dynamic.Mutation) *http.Response {
	t.Helper()
	body, err := json.Marshal(service.MutateRequest{Epoch: epoch, Mutations: muts})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, base+"/v1/jobs/"+id+"/instance", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestKill9MutationReplay is the dynamic chaos acceptance test. It kills
// the daemon with SIGKILL at the two windows the exactly-once contract
// must survive:
//
//  1. after a mutation is journaled but before the job has any
//     checkpoint (the batch must be re-primed at its epoch on recovery
//     and applied exactly once by the restarted run), and
//  2. after the mutation's patched checkpoint reached disk (the batch
//     must be folded into the recovered instance, never re-applied).
//
// The recovered job's final front must be bit-identical to an
// uninterrupted reference run of the same spec with the same mutation at
// the same epoch — a duplicated or dropped application diverges, because
// cancel_customer renumbers every later site.
func TestKill9MutationReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	dataDir := t.TempDir()
	addr := freePort(t)
	base := "http://" + addr
	cmd := startDaemon(t, addr, dataDir)

	blockerSpec := service.JobSpec{
		Instance:       service.InstanceSpec{Class: "R1", N: 40, Seed: 3},
		MaxEvaluations: 1_000_000,
		Seed:           5,
	}
	targetSpec := service.JobSpec{
		Instance:       service.InstanceSpec{Class: "R1", N: 40, Seed: 3},
		Algorithm:      "asynchronous",
		Processors:     3,
		MaxEvaluations: 400_000,
		Seed:           7,
	}
	const epoch = 2
	muts := []dynamic.Mutation{
		{Version: dynamic.Version, Op: dynamic.CancelCustomer, Customer: 5},
		{Version: dynamic.Version, Op: dynamic.UpdateDemand, Customer: 3, Demand: 5},
	}

	blocker := submitSpec(t, base, blockerSpec) // occupies the single worker
	target := submitSpec(t, base, targetSpec)   // waits in the queue

	// WAL the mutation while the target is still queued: a 200 means the
	// mutate record is fsynced, and the target has no checkpoint yet.
	resp := patchMutations(t, base, target.ID, epoch, muts)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PATCH: %s", resp.Status)
	}

	// Kill window 1: mutation journaled, no checkpoint anywhere for the
	// target. Recovery must re-prime the batch at its epoch.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() //nolint:errcheck // killed: non-zero by design

	cmd2 := startDaemon(t, addr, dataDir)
	// The blocker requeues first (submission order) and takes the worker
	// again; cancel it so the target runs.
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+blocker.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
	} else {
		t.Fatal(err)
	}

	// Kill window 2: wait until a checkpoint at or past the mutation
	// epoch is durably on disk — by the halt-barrier invariant it only
	// ever exists in its patched (mutation-applied) form.
	ckptPath := filepath.Join(dataDir, "jobs", target.ID, "ckpt.json")
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, err := os.ReadFile(ckptPath); err == nil {
			if ck, err := core.DecodeCheckpoint(data); err == nil && ck.Barrier >= epoch {
				break
			}
		}
		st := getJSON[service.Status](t, base+"/v1/jobs/"+target.ID)
		if st.State.Terminal() {
			cmd2.Process.Kill() //nolint:errcheck // unwind
			t.Fatalf("target reached %s before the mutation checkpoint window; raise its budget", st.State)
		}
		if time.Now().After(deadline) {
			cmd2.Process.Kill() //nolint:errcheck // unwind
			t.Fatal("no post-mutation checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd2.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd2.Wait() //nolint:errcheck // killed: non-zero by design

	// Final recovery: the mutate record is at or below the recovered
	// barrier, so it is folded into the instance, not re-applied.
	cmd3 := startDaemon(t, addr, dataDir)
	defer func() {
		cmd3.Process.Kill() //nolint:errcheck // test teardown
		cmd3.Wait()         //nolint:errcheck // as above
	}()
	if st := waitTerminal(t, base, target.ID); st.State != service.StateDone {
		t.Fatalf("target: state %s (%s), want done", st.State, st.Error)
	}
	got := getJSON[resultio.FrontFile](t, base+"/v1/jobs/"+target.ID+"/result")

	// Uninterrupted reference: same durable configuration, same spec,
	// same mutation at the same epoch, no kills.
	refSvc, err := service.Open(service.Config{Workers: 1, DataDir: t.TempDir(), CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer refSvc.Close()
	refBlocker, err := refSvc.Submit(blockerSpec)
	if err != nil {
		t.Fatal(err)
	}
	refJob, err := refSvc.Submit(targetSpec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := refSvc.Mutate(refJob.ID, epoch, muts); err != nil {
		t.Fatal(err)
	}
	if _, err := refSvc.Cancel(refBlocker.ID); err != nil {
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
	if ref == nil || len(ref.Solutions) == 0 {
		t.Fatal("reference job produced no front")
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
			t.Errorf("front[%d] routes diverged across the kills", i)
		}
	}
}
