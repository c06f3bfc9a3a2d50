package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/resultio"
	"repro/internal/vrptw"
)

// e2eServer exposes a Service over a real ephemeral-port HTTP listener.
func e2eServer(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		svc.Close()
	})
	return svc, srv
}

func postJob(t *testing.T, base string, spec JobSpec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding %s response: %v", resp.Request.URL, err)
	}
	return v
}

func getStatus(t *testing.T, base, id string) Status {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %s", id, resp.Status)
	}
	return decodeBody[Status](t, resp)
}

func waitHTTPState(t *testing.T, base, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, base, id)
		if st.State == want {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Status{}
}

// TestE2ELifecycle drives the acceptance scenario over real HTTP: submit
// 4 concurrent jobs against a 2-worker pool (the overflow answering 429
// with Retry-After), stream events of a long job until its first accepted
// point, cancel it mid-run, confirm the worker frees up, and finally
// fetch results and drain.
func TestE2ELifecycle(t *testing.T) {
	svc, srv := e2eServer(t, Config{Workers: 2, QueueDepth: 1, MaxEvaluations: -1, Version: "e2e"})
	base := srv.URL

	// Health before anything runs.
	health := decodeBody[Stats](t, mustGet(t, base+"/v1/healthz"))
	if health.Status != "ok" || health.Workers != 2 || health.Version != "e2e" {
		t.Fatalf("unexpected healthz: %+v", health)
	}

	// Two long jobs occupy both workers; a third parks in the queue.
	var ids []string
	for i := 0; i < 3; i++ {
		resp := postJob(t, base, longSpec())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submission %d: %s", i, resp.Status)
		}
		sub := decodeBody[SubmitResponse](t, resp)
		ids = append(ids, sub.ID)
		if i < 2 {
			waitHTTPState(t, base, sub.ID, StateRunning)
		}
	}
	// 4th submission overflows the depth-1 queue.
	resp := postJob(t, base, longSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("4th submission: %s; want 429", resp.Status)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}
	resp.Body.Close()

	// Stream the first running job's events until a point is accepted.
	seenSeq := streamUntil(t, base, ids[0], "archive_accept", 0)

	// Cancel it mid-run; its worker must free up and pick the queued job.
	delResp := mustDo(t, http.MethodDelete, base+"/v1/jobs/"+ids[0])
	if delResp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %s", delResp.Status)
	}
	delResp.Body.Close()
	st := waitHTTPState(t, base, ids[0], StateCanceled)
	if st.Evaluations == 0 {
		t.Error("canceled job reports no evaluations")
	}
	if len(st.Front) == 0 {
		t.Error("canceled job lost its live front")
	}
	waitHTTPState(t, base, ids[2], StateRunning)

	// The canceled job's result endpoint serves the partial front.
	res := decodeBody[resultio.FrontFile](t, mustGet(t, base+"/v1/jobs/"+ids[0]+"/result"))
	if len(res.Solutions) == 0 {
		t.Error("canceled job's result file has no solutions")
	}

	// Resuming the event stream past the cancel replays the terminal event.
	terminalSeen := false
	for _, name := range replayEvents(t, base, ids[0], seenSeq) {
		if name == string(StateCanceled) {
			terminalSeen = true
		}
	}
	if !terminalSeen {
		t.Error("event replay after cancel did not include the terminal event")
	}

	// A still-running job's result endpoint answers 409.
	conflict := mustGet(t, base+"/v1/jobs/"+ids[1]+"/result")
	if conflict.StatusCode != http.StatusConflict {
		t.Errorf("result of a running job: %s; want 409", conflict.Status)
	}
	conflict.Body.Close()

	// The telemetry endpoint reports per-job instrument snapshots.
	telem := decodeBody[map[string]any](t, mustGet(t, base+"/telemetry"))
	if _, ok := telem["jobs"].(map[string]any)[ids[1]]; !ok {
		t.Errorf("telemetry endpoint missing job %s", ids[1])
	}

	// Drain with an expired grace: the running jobs get cancelled but
	// keep their partial work, and the service reports draining.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids[1:] {
		if st := getStatus(t, base, id); !st.State.Terminal() {
			t.Errorf("job %s not terminal after drain: %s", id, st.State)
		}
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func mustDo(t *testing.T, method, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// streamUntil follows the SSE stream until an event with the given name
// arrives and returns its seq.
func streamUntil(t *testing.T, base, id, name string, after int) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	if after > 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(after))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		if ev.Name == name {
			return ev.Seq
		}
	}
	t.Fatalf("stream of %s ended without %q (err: %v)", id, name, sc.Err())
	return 0
}

// replayEvents reads the whole (finite, job terminal) stream after seq and
// returns the event names.
func replayEvents(t *testing.T, base, id string, after int) []string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(after))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var names []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			continue
		}
		if ev.Seq <= after {
			t.Errorf("replay returned already-seen seq %d (cursor %d)", ev.Seq, after)
		}
		names = append(names, ev.Name)
	}
	return names
}

func TestHTTPValidationAndNotFound(t *testing.T) {
	_, srv := e2eServer(t, Config{Workers: 1})
	base := srv.URL

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"instance":`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %s; want 400", resp.Status)
	}
	resp.Body.Close()

	resp = postJob(t, base, JobSpec{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty spec: %s; want 400", resp.Status)
	}
	resp.Body.Close()

	// eval_workers was a spec field once; it is now unknown like any other.
	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"instance":{"class":"R1","n":20,"seed":1},"eval_workers":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("removed field eval_workers: %s; want 400", resp.Status)
	}
	resp.Body.Close()

	// A valid spec followed by anything but white space is not one spec.
	resp, err = http.Post(base+"/v1/jobs", "application/json",
		strings.NewReader(`{"instance":{"class":"R1","n":20,"seed":1}} {"not":"a spec"} garbage`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("trailing bytes after the spec: %s; want 400", resp.Status)
	}
	resp.Body.Close()

	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events", "/v1/jobs/nope/result"} {
		resp := mustGet(t, base+path)
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %s; want 404", path, resp.Status)
		}
		resp.Body.Close()
	}
}

// TestServiceDeterminismGolden is the acceptance golden: a job submitted
// through the HTTP API on the sim backend must produce the bit-identical
// final archive (objectives and routes) of a direct core.Run with the
// same instance, seed and configuration.
func TestServiceDeterminismGolden(t *testing.T) {
	spec := JobSpec{
		Instance:       InstanceSpec{Class: "R1", N: 50, Seed: 5},
		Algorithm:      "asynchronous",
		Processors:     3,
		Seed:           42,
		MaxEvaluations: 3000,
	}

	// Direct run, no service and no telemetry.
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 50, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Processors = 3
	cfg.Seed = 42
	cfg.MaxEvaluations = 3000
	direct, err := core.Run(core.Asynchronous, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatal(err)
	}
	want := resultio.FromResult(in.Name, direct, true)

	_, srv := e2eServer(t, Config{Workers: 1})
	resp := postJob(t, srv.URL, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s", resp.Status)
	}
	sub := decodeBody[SubmitResponse](t, resp)
	waitHTTPState(t, srv.URL, sub.ID, StateDone)
	got := decodeBody[resultio.FrontFile](t, mustGet(t, srv.URL+"/v1/jobs/"+sub.ID+"/result"))

	if got.Evaluations != want.Evaluations {
		t.Errorf("evaluations: service %d, direct %d", got.Evaluations, want.Evaluations)
	}
	if got.Elapsed != want.Elapsed {
		t.Errorf("elapsed: service %v, direct %v", got.Elapsed, want.Elapsed)
	}
	if !reflect.DeepEqual(got.Solutions, want.Solutions) {
		t.Fatalf("service front differs from direct run:\nservice: %+v\ndirect:  %+v", got.Solutions, want.Solutions)
	}
}
