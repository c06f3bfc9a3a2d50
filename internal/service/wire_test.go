package service

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"
)

// solverEventKeys pins the wire fields of the five solver events as SSE
// clients see them. snapshot additionally carries best_distance and
// best_vehicles once the archive holds a feasible solution.
var solverEventKeys = map[string][]string{
	"init":           {"proc", "distance", "vehicles", "tardiness"},
	"archive_accept": {"proc", "iteration", "time", "distance", "vehicles", "tardiness", "feasible", "operator", "archive_size"},
	"restart":        {"proc", "iteration", "trigger", "nondom_consumed", "nondom_size", "archive_size"},
	"decision":       {"proc", "iteration", "reason", "pending", "late", "wait_seconds"},
	"snapshot":       {"proc", "evals", "iteration", "time", "archive_size", "nondom_size", "hypervolume", "spacing", "hv_ref"},
}

// infeasibleSolomon is a small instance whose customer 10 cannot be
// reached before its due date, so no solution is ever feasible.
const infeasibleSolomon = `INFEAS

VEHICLE
NUMBER     CAPACITY
  6         200

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME  DUE DATE   SERVICE TIME
    0      50         50          0          0       1000         0
    1      60         50         10          0        900        10
    2      40         50         10          0        900        10
    3      50         60         10          0        900        10
    4      50         40         10          0        900        10
    5      65         65         10          0        900        10
    6      35         35         10          0        900        10
    7      65         35         10          0        900        10
    8      35         65         10          0        900        10
    9      70         50         10          0        900        10
   10      95         95         10          0          5        10
`

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedCopy(keys []string) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	return out
}

// allEvents reads a terminal job's whole SSE stream.
func allEvents(t *testing.T, base, id string) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var evs []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// checkSolverEvents asserts every solver event's field set and returns how
// many snapshots carried the best-feasible fields, and how many did not.
func checkSolverEvents(t *testing.T, evs []Event) (withBest, withoutBest int) {
	t.Helper()
	seen := map[string]bool{}
	for _, ev := range evs {
		want, ok := solverEventKeys[ev.Name]
		if !ok {
			continue
		}
		seen[ev.Name] = true
		got := sortedKeys(ev.Fields)
		if ev.Name == "snapshot" {
			_, hasD := ev.Fields["best_distance"]
			_, hasV := ev.Fields["best_vehicles"]
			if hasD != hasV {
				t.Fatalf("snapshot carries one best-feasible field only: %v", got)
			}
			if hasD {
				withBest++
				want = append(sortedCopy(want), "best_distance", "best_vehicles")
			} else {
				withoutBest++
			}
			ref, _ := ev.Fields["hv_ref"].(map[string]any)
			if r := sortedKeys(ref); strings.Join(r, ",") != "distance,tardiness,vehicles" {
				t.Errorf("snapshot hv_ref keys = %v", r)
			}
		}
		if w := sortedCopy(want); strings.Join(got, ",") != strings.Join(w, ",") {
			t.Errorf("%s fields = %v, want %v", ev.Name, got, w)
		}
	}
	for name := range solverEventKeys {
		if !seen[name] {
			t.Errorf("no %s event in the stream", name)
		}
	}
	return withBest, withoutBest
}

// TestSolverEventWireFormat pins the SSE field sets of the five solver
// events for an asynchronous sim job, on a generated instance (feasible
// points appear) and on one with an unreachable customer (snapshots never
// carry best-feasible fields).
func TestSolverEventWireFormat(t *testing.T) {
	_, srv := e2eServer(t, Config{Workers: 1})
	run := func(spec JobSpec) []Event {
		t.Helper()
		spec.Algorithm = "asynchronous"
		spec.Processors = 3
		spec.Seed = 7
		spec.MaxEvaluations = 3000
		spec.SampleEvery = 500
		spec.Neighborhood = 20
		spec.RestartIters = 3
		sub := decodeBody[SubmitResponse](t, postJob(t, srv.URL, spec))
		waitHTTPState(t, srv.URL, sub.ID, StateDone)
		return allEvents(t, srv.URL, sub.ID)
	}

	withBest, _ := checkSolverEvents(t, run(JobSpec{Instance: InstanceSpec{Class: "R1", N: 40, Seed: 3}}))
	if withBest == 0 {
		t.Error("no snapshot carried best_distance/best_vehicles on a feasible instance")
	}
	withBest, withoutBest := checkSolverEvents(t, run(JobSpec{Instance: InstanceSpec{Solomon: infeasibleSolomon}}))
	if withBest != 0 || withoutBest == 0 {
		t.Errorf("infeasible instance: %d snapshots with best fields, %d without; want 0 and > 0", withBest, withoutBest)
	}
}

// flightKeys are the flight-recorder sample fields hashed by
// TestFlightSamplesDigest; best_distance and best_vehicles may accompany
// them.
var flightKeys = []string{"evals", "iteration", "time", "archive_size", "nondom_size", "hypervolume", "spacing", "evals_per_sec"}

// TestFlightSamplesDigest pins the values a fixed sequential sim job
// records on GET /v1/jobs/{id}/flight: a digest over the exact bits of
// every sample's numeric fields, accept rates and marker.
func TestFlightSamplesDigest(t *testing.T) {
	_, srv := e2eServer(t, Config{Workers: 1})
	spec := smallSpec()
	spec.MaxEvaluations = 5000
	spec.SampleEvery = 500
	sub := decodeBody[SubmitResponse](t, postJob(t, srv.URL, spec))
	waitHTTPState(t, srv.URL, sub.ID, StateDone)
	rec := decodeBody[struct {
		Samples []map[string]any `json:"samples"`
	}](t, mustGet(t, srv.URL+"/v1/jobs/"+sub.ID+"/flight"))
	if len(rec.Samples) != 8 {
		t.Fatalf("recorded %d samples, want 8", len(rec.Samples))
	}

	allowed := map[string]bool{"accept_rates": true, "marker": true, "best_distance": true, "best_vehicles": true}
	for _, k := range flightKeys {
		allowed[k] = true
	}
	h := sha256.New()
	for i, sm := range rec.Samples {
		for k := range sm {
			if !allowed[k] {
				t.Errorf("sample %d has unexpected field %q", i, k)
			}
		}
		for _, k := range flightKeys {
			v, ok := sm[k].(float64)
			if !ok {
				t.Fatalf("sample %d: %s = %v", i, k, sm[k])
			}
			fmt.Fprintf(h, "%s=%x;", k, math.Float64bits(v))
		}
		rates, _ := sm["accept_rates"].(map[string]any)
		for _, op := range sortedKeys(rates) {
			fmt.Fprintf(h, "%s=%x;", op, math.Float64bits(rates[op].(float64)))
		}
		fmt.Fprintf(h, "marker=%v\n", sm["marker"])
	}
	if got, want := hex.EncodeToString(h.Sum(nil))[:16], "a56a7404beac2852"; got != want {
		t.Errorf("flight samples digest %s, want %s", got, want)
	}
}
