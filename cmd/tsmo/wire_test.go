package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reportKeys pins the JSONL fields of the run-boundary records and the
// five solver events (beyond the "ts" and "event" every line carries).
// snapshot additionally carries best_distance and best_vehicles once the
// archive holds a feasible solution.
var reportKeys = map[string][]string{
	"run_start":      {"instance", "customers", "algorithm", "procs", "evals", "backend", "seed"},
	"init":           {"proc", "distance", "vehicles", "tardiness"},
	"archive_accept": {"proc", "iteration", "time", "distance", "vehicles", "tardiness", "feasible", "operator", "archive_size"},
	"restart":        {"proc", "iteration", "trigger", "nondom_consumed", "nondom_size", "archive_size"},
	"decision":       {"proc", "iteration", "reason", "pending", "late", "wait_seconds"},
	"snapshot":       {"proc", "evals", "iteration", "time", "archive_size", "nondom_size", "hypervolume", "spacing", "hv_ref"},
	"summary":        {"instance", "algorithm", "procs", "evaluations", "iterations", "shares", "elapsed_seconds", "front_size", "counters"},
}

// infeasibleInstance has a customer no vehicle can reach before its due
// date, so no solution is ever feasible.
const infeasibleInstance = `INFEAS

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

func keysOf(m map[string]any) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

// checkReport asserts every record's field set and returns how many
// snapshots carried the best-feasible fields, and how many did not.
func checkReport(t *testing.T, path string) (withBest, withoutBest int) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		name, _ := rec["event"].(string)
		want, ok := reportKeys[name]
		if !ok {
			t.Errorf("unexpected event %q", name)
			continue
		}
		seen[name] = true
		want = append(append([]string(nil), want...), "ts", "event")
		if name == "snapshot" {
			if _, ok := rec["best_distance"]; ok {
				withBest++
				want = append(want, "best_distance", "best_vehicles")
			} else {
				withoutBest++
			}
			if got := keysOf(rec["hv_ref"].(map[string]any)); got != "distance,tardiness,vehicles" {
				t.Errorf("snapshot hv_ref keys = %s", got)
			}
		}
		sort.Strings(want)
		if got := keysOf(rec); got != strings.Join(want, ",") {
			t.Errorf("%s fields = %s, want %s", name, got, strings.Join(want, ","))
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name := range reportKeys {
		if !seen[name] {
			t.Errorf("no %s record in the report", name)
		}
	}
	return withBest, withoutBest
}

// TestTelemetryReportWireFormat pins the JSONL field sets of an
// asynchronous -telemetry run, on a generated instance (feasible points
// appear) and on one with an unreachable customer (snapshots never carry
// best-feasible fields).
func TestTelemetryReportWireFormat(t *testing.T) {
	dir := t.TempDir()
	report := func(name string, edit func(*options)) string {
		t.Helper()
		o := baseOptions()
		o.algName = "asynchronous"
		o.procs = 3
		o.evals = 3000
		o.nbh = 20
		o.restart = 3
		o.sampleEvery = 500
		o.telemetryOut = filepath.Join(dir, name+".jsonl")
		edit(&o)
		if err := run(context.Background(), o); err != nil {
			t.Fatal(err)
		}
		return o.telemetryOut
	}

	withBest, _ := checkReport(t, report("feasible", func(*options) {}))
	if withBest == 0 {
		t.Error("no snapshot carried best_distance/best_vehicles on a feasible instance")
	}

	inst := filepath.Join(dir, "infeasible.txt")
	if err := os.WriteFile(inst, []byte(infeasibleInstance), 0o644); err != nil {
		t.Fatal(err)
	}
	withBest, withoutBest := checkReport(t, report("infeasible", func(o *options) {
		o.class, o.n = "", 0
		o.instFile = inst
	}))
	if withBest != 0 || withoutBest == 0 {
		t.Errorf("infeasible instance: %d snapshots with best fields, %d without; want 0 and > 0", withBest, withoutBest)
	}
}
