package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/service"
)

// recordFlightPair runs the same job spec twice on an in-process daemon
// and saves both flight recordings to disk, as a client of the HTTP API
// would with curl.
func recordFlightPair(t *testing.T, dir string) (string, string) {
	t.Helper()
	svc := service.New(service.Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	spec := service.JobSpec{
		Instance:       service.InstanceSpec{Class: "R1", N: 40, Seed: 3},
		MaxEvaluations: 5000,
		SampleEvery:    500,
		Seed:           7,
	}
	paths := make([]string, 2)
	for i := range paths {
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for !j.State().Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", j.ID)
			}
			time.Sleep(5 * time.Millisecond)
		}
		resp, err := srv.Client().Get(srv.URL + "/v1/jobs/" + j.ID + "/flight")
		if err != nil {
			t.Fatal(err)
		}
		var rec flight.Recording
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(rec.Samples) == 0 {
			t.Fatalf("job %s recorded no samples", j.ID)
		}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		paths[i] = filepath.Join(dir, j.ID+".flight.json")
		if err := os.WriteFile(paths[i], data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths[0], paths[1]
}

// TestIdenticalRunsDiffToZero is the golden acceptance test: two flight
// recordings of the same instance/seed/config diff to an all-zero delta
// table and pass the strictest regression threshold.
func TestIdenticalRunsDiffToZero(t *testing.T) {
	dir := t.TempDir()
	a, b := recordFlightPair(t, dir)

	var out bytes.Buffer
	code, err := run(&out, a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("identical recordings failed the zero threshold:\n%s", out.String())
	}
	text := out.String()
	if !strings.Contains(text, "delta_hv") {
		t.Fatalf("missing table header:\n%s", text)
	}
	if !strings.Contains(text, "max |delta_hv| 0\n") {
		t.Fatalf("identical runs did not diff to zero:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) < 3 {
		t.Fatalf("expected at least one delta row:\n%s", text)
	}
}

// TestDivergentRunsFailGate perturbs one recording and checks the
// regression gate trips with exit code 1.
func TestDivergentRunsFailGate(t *testing.T) {
	dir := t.TempDir()
	a, b := recordFlightPair(t, dir)

	data, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	var rec flight.Recording
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	rec.Samples[len(rec.Samples)/2].Hypervolume *= 1.25
	data, err = json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	code, err := run(&out, a, b, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("perturbed recording passed the gate:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("missing FAIL line:\n%s", out.String())
	}
}

// parentFormatRecording is a flight recording in the format served before
// samples carried best_distance/best_vehicles.
const parentFormatRecording = `{"job":"j000001","instance":"R1_40","algorithm":"sequential","seed":7,"sample_every":500,"dropped":0,"samples":[
{"evals":601,"iteration":3,"time":0.5,"archive_size":2,"nondom_size":4,"hypervolume":1234.5,"spacing":0,"evals_per_sec":1202,"accept_rates":{"relocate":0.25}},
{"evals":1201,"iteration":6,"time":1,"archive_size":3,"nondom_size":5,"hypervolume":1500.25,"spacing":1.5,"evals_per_sec":1201,"marker":"mutation@1"}]}`

// TestParentFormatRecordingDiffsToZero checks that a recording without the
// best-feasible sample fields still decodes and diffs to zero.
func TestParentFormatRecordingDiffsToZero(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.flight.json")
	if err := os.WriteFile(path, []byte(parentFormatRecording), 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Samples) != 2 || rec.Samples[1].Hypervolume != 1500.25 ||
		rec.Samples[0].AcceptRates["relocate"] != 0.25 || rec.Samples[1].Marker != "mutation@1" {
		t.Fatalf("decoded recording = %+v", rec)
	}
	var out bytes.Buffer
	code, err := run(&out, path, path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 || !strings.Contains(out.String(), "2 shared intervals") || !strings.Contains(out.String(), "max |delta_hv| 0\n") {
		t.Fatalf("parent-format recording did not diff to zero (exit %d):\n%s", code, out.String())
	}
}
