package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/flight"
	"repro/internal/resultio"
)

// patchInstance sends a PATCH /v1/jobs/{id}/instance with the given body.
func patchInstance(t *testing.T, base, id string, body any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPatch, base+"/v1/jobs/"+id+"/instance", bytes.NewReader(data))
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

func cancelMut(customer int) dynamic.Mutation {
	return dynamic.Mutation{Version: dynamic.Version, Op: dynamic.CancelCustomer, Customer: customer}
}

// blockWorker occupies the single worker with a long job so the next
// submission stays queued (and its mutation schedule accepts epochs
// deterministically). The returned func cancels the blocker.
func blockWorker(t *testing.T, base string) func() {
	t.Helper()
	resp := postJob(t, base, longSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker submit: %s", resp.Status)
	}
	sub := decodeBody[SubmitResponse](t, resp)
	waitHTTPState(t, base, sub.ID, StateRunning)
	return func() {
		mustDo(t, http.MethodDelete, base+"/v1/jobs/"+sub.ID).Body.Close()
	}
}

// TestE2EDynamicMutation drives the live-mutation API over real HTTP:
// PATCH a batch onto a queued job (epoch auto-pinned to 1) and an inline
// mutation at an explicit later barrier, watch both epochs apply on the
// SSE stream, check the status counters, the flight-recorder marker and
// the Retry-After contract, and confirm every 4xx/409 path.
func TestE2EDynamicMutation(t *testing.T) {
	_, srv := e2eServer(t, Config{Workers: 1, QueueDepth: 4, MaxEvaluations: -1, CheckpointEvery: 3})
	base := srv.URL
	release := blockWorker(t, base)

	spec := longSpec()
	spec.GranularK = 8
	spec.SampleEvery = 2000
	resp := postJob(t, base, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	id := decodeBody[SubmitResponse](t, resp).ID

	// Batch PATCH while queued: pinned to the first barrier.
	resp = patchInstance(t, base, id, MutateRequest{
		Mutations: []dynamic.Mutation{
			cancelMut(7),
			{Version: dynamic.Version, Op: dynamic.UpdateDemand, Customer: 9, Demand: 5},
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch PATCH: %s", resp.Status)
	}
	if mr := decodeBody[MutateResponse](t, resp); mr.Epoch != 1 || mr.Mutations != 2 {
		t.Fatalf("batch PATCH pinned epoch %d with %d mutations, want 1 with 2", mr.Epoch, mr.Mutations)
	}

	// Inline PATCH at an explicit later barrier. A missing version must
	// default to the current one.
	resp = patchInstance(t, base, id, map[string]any{"epoch": 3, "op": "cancel_customer", "customer": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline PATCH: %s", resp.Status)
	}
	if mr := decodeBody[MutateResponse](t, resp); mr.Epoch != 3 || mr.Mutations != 1 {
		t.Fatalf("inline PATCH pinned epoch %d with %d mutations, want 3 with 1", mr.Epoch, mr.Mutations)
	}

	// Malformed requests are rejected before anything is queued.
	for name, body := range map[string]any{
		"inline plus batch": map[string]any{"op": "cancel_customer", "customer": 2,
			"mutations": []dynamic.Mutation{cancelMut(4)}},
		"empty":          map[string]any{},
		"invalid target": MutateRequest{Mutations: []dynamic.Mutation{cancelMut(0)}},
		"unknown op":     map[string]any{"op": "teleport_customer", "customer": 2},
		"unknown field":  map[string]any{"op": "cancel_customer", "customer": 2, "bogus": true},
	} {
		resp = patchInstance(t, base, id, body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s PATCH: %s, want 400", name, resp.Status)
		}
	}
	// A valid mutation followed by more bytes is not one request.
	req, err := http.NewRequest(http.MethodPatch, base+"/v1/jobs/"+id+"/instance",
		strings.NewReader(`{"op":"cancel_customer","customer":2} {"not":"a mutation"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing bytes PATCH: %s, want 400", resp.Status)
	}

	st := getStatus(t, base, id)
	if st.MutationsPending != 3 {
		t.Errorf("pending mutations while queued: %d, want 3", st.MutationsPending)
	}
	if st.GranularK != 8 {
		t.Errorf("status granular_k=%d, want 8", st.GranularK)
	}

	// Unblock the worker and watch both epochs apply in order.
	release()
	seq := streamUntil(t, base, id, "mutations", 0)
	seq = streamUntil(t, base, id, "mutations", seq)

	st = getStatus(t, base, id)
	if st.MutationEpochs != 2 || st.MutationsApplied != 3 || st.MutationsRejected != 0 {
		t.Errorf("mutation counters: epochs=%d applied=%d rejected=%d, want 2/3/0",
			st.MutationEpochs, st.MutationsApplied, st.MutationsRejected)
	}
	if st.LastMutationEpoch != 3 || st.MutationsPending != 0 {
		t.Errorf("last epoch %d pending %d, want 3/0", st.LastMutationEpoch, st.MutationsPending)
	}

	// The run is still mid-budget: its result answers 409 and tells the
	// poller when to retry, and a passed epoch can no longer be pinned.
	resp = mustGet(t, base+"/v1/jobs/"+id+"/result")
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of a running job: %s, want 409", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("409 result response missing Retry-After")
	}
	resp = patchInstance(t, base, id, map[string]any{"epoch": 1, "op": "cancel_customer", "customer": 2})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("PATCH at a passed epoch: %s, want 409", resp.Status)
	}

	// The first flight sample after a mutation barrier carries its marker.
	deadline := time.Now().Add(30 * time.Second)
	marked := false
	for !marked && time.Now().Before(deadline) {
		rec := decodeBody[flight.Recording](t, mustGet(t, base+"/v1/jobs/"+id+"/flight"))
		for _, sm := range rec.Samples {
			if strings.HasPrefix(sm.Marker, "mutation@") {
				marked = true
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !marked {
		t.Error("no flight sample carries a mutation marker")
	}

	// Terminal jobs refuse further mutations.
	mustDo(t, http.MethodDelete, base+"/v1/jobs/"+id).Body.Close()
	waitHTTPState(t, base, id, StateCanceled)
	resp = patchInstance(t, base, id, MutateRequest{Mutations: []dynamic.Mutation{cancelMut(2)}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("PATCH on a terminal job: %s, want 409", resp.Status)
	}
}

// TestE2EMutateNotDynamic: a job without deterministic checkpoint
// barriers (an in-run MaxSeconds budget) answers PATCH with 409.
func TestE2EMutateNotDynamic(t *testing.T) {
	_, srv := e2eServer(t, Config{Workers: 1, QueueDepth: 4, MaxEvaluations: -1, CheckpointEvery: 3})
	base := srv.URL
	release := blockWorker(t, base)
	defer release()

	spec := smallSpec()
	spec.MaxSeconds = 30
	resp := postJob(t, base, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	id := decodeBody[SubmitResponse](t, resp).ID
	resp = patchInstance(t, base, id, MutateRequest{Mutations: []dynamic.Mutation{cancelMut(2)}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("PATCH on a non-checkpointed job: %s, want 409", resp.Status)
	}
}

// TestE2EResumeGranularKMismatch: resuming a checkpoint under a different
// granular neighborhood shape fails with an error that names the
// granular_k field, not a generic digest/checksum failure.
func TestE2EResumeGranularKMismatch(t *testing.T) {
	_, srv := e2eServer(t, Config{Workers: 1, QueueDepth: 4, MaxEvaluations: -1, CheckpointEvery: 3})
	base := srv.URL

	spec := longSpec()
	spec.GranularK = 6
	resp := postJob(t, base, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	id := decodeBody[SubmitResponse](t, resp).ID

	var ckpt []byte
	deadline := time.Now().Add(30 * time.Second)
	for ckpt == nil {
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		resp := mustGet(t, base+"/v1/jobs/"+id+"/checkpoint")
		if resp.StatusCode == http.StatusOK {
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			ckpt = data
		}
		resp.Body.Close()
		time.Sleep(10 * time.Millisecond)
	}
	mustDo(t, http.MethodDelete, base+"/v1/jobs/"+id).Body.Close()
	waitHTTPState(t, base, id, StateCanceled)

	bad := longSpec()
	bad.GranularK = 9
	bad.Resume = ckpt
	resp = postJob(t, base, bad)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resume submit: %s", resp.Status)
	}
	st := waitHTTPState(t, base, decodeBody[SubmitResponse](t, resp).ID, StateFailed)
	if !strings.Contains(st.Error, "granular_k=6") || !strings.Contains(st.Error, "granular_k=9") {
		t.Errorf("mismatch error does not name both granular_k values: %q", st.Error)
	}
	if strings.Contains(st.Error, "digest") {
		t.Errorf("mismatch surfaced as an opaque digest failure: %q", st.Error)
	}
}

// TestE2EDynamicDeterminism pins the dynamic golden contract at the
// service boundary: two fresh services given the same spec and the same
// mutation batch at the same explicit epoch produce bit-identical stored
// results.
func TestE2EDynamicDeterminism(t *testing.T) {
	run := func() *resultio.FrontFile {
		_, srv := e2eServer(t, Config{Workers: 1, QueueDepth: 4, MaxEvaluations: -1, CheckpointEvery: 3})
		base := srv.URL
		release := blockWorker(t, base)

		spec := smallSpec()
		spec.MaxEvaluations = 60_000
		resp := postJob(t, base, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %s", resp.Status)
		}
		id := decodeBody[SubmitResponse](t, resp).ID
		resp = patchInstance(t, base, id, MutateRequest{
			Epoch: 2,
			Mutations: []dynamic.Mutation{
				cancelMut(5),
				{Version: dynamic.Version, Op: dynamic.UpdateDemand, Customer: 3, Demand: 5},
			},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("PATCH: %s", resp.Status)
		}
		resp.Body.Close()
		release()
		waitHTTPState(t, base, id, StateDone)
		st := getStatus(t, base, id)
		if st.MutationEpochs != 1 || st.MutationsApplied != 2 {
			t.Fatalf("mutation epochs=%d applied=%d, want 1/2 (budget too small to reach barrier 2?)",
				st.MutationEpochs, st.MutationsApplied)
		}
		ff := decodeBody[resultio.FrontFile](t, mustGet(t, base+"/v1/jobs/"+id+"/result"))
		if len(ff.Solutions) == 0 {
			t.Fatal("mutated run produced no solutions")
		}
		return &ff
	}

	a, b := run(), run()
	if a.Evaluations != b.Evaluations {
		t.Errorf("evaluations differ: %d vs %d", a.Evaluations, b.Evaluations)
	}
	if !reflect.DeepEqual(a.Solutions, b.Solutions) {
		t.Error("same (seed, mutation log) produced different fronts over HTTP")
	}
}
