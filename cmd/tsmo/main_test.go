package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/resultio"
)

// baseOptions mirrors the flag defaults for the small test instance.
func baseOptions() options {
	return options{
		algName:  "sequential",
		procs:    1,
		class:    "R1",
		n:        40,
		seed:     1,
		instSeed: 1,
		evals:    800,
		nbh:      40,
		tenure:   20,
		archive:  20,
		restart:  100,
		backend:  "sim",
	}
}

func TestRunGeneratedInstance(t *testing.T) {
	dir := t.TempDir()
	o := baseOptions()
	o.algName = "asynchronous"
	o.procs = 3
	o.jsonOut = filepath.Join(dir, "front.json")
	o.trajOut = filepath.Join(dir, "traj.csv")
	o.routes = true
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(o.jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	front, err := resultio.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if front.Algorithm != "asynchronous" || len(front.Solutions) == 0 {
		t.Errorf("unexpected result file: %+v", front)
	}
	traj, err := os.ReadFile(o.trajOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(traj), "iteration,born") {
		t.Error("trajectory CSV header missing")
	}
}

func TestRunInstanceFile(t *testing.T) {
	dir := t.TempDir()
	inst := filepath.Join(dir, "inst.txt")
	text := `T1

VEHICLE
NUMBER     CAPACITY
  5         100

CUSTOMER
CUST NO.  XCOORD.   YCOORD.    DEMAND   READY TIME  DUE DATE   SERVICE TIME
    0      50         50          0          0       1000         0
    1      60         50         10          0        900        10
    2      40         50         10          0        900        10
    3      50         60         10          0        900        10
`
	if err := os.WriteFile(inst, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	o := baseOptions()
	o.class, o.n = "", 0
	o.instFile = inst
	o.evals = 300
	o.nbh = 20
	o.all = true
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := map[string]func() options{
		"bad algorithm": func() options {
			o := baseOptions()
			o.algName = "nope"
			return o
		},
		"bad class": func() options {
			o := baseOptions()
			o.class = "X9"
			return o
		},
		"bad backend": func() options {
			o := baseOptions()
			o.backend = "warp"
			return o
		},
		"missing instance file": func() options {
			o := baseOptions()
			o.class, o.n = "", 0
			o.instFile = "/no/such/file"
			return o
		},
		"bad log level": func() options {
			o := baseOptions()
			o.logLevel = "loud"
			return o
		},
		"bad fault spec": func() options {
			o := baseOptions()
			o.faults = "1:explode@3"
			return o
		},
	}
	for name, f := range cases {
		if run(context.Background(), f()) == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestRunTelemetryReport is the ISSUE's acceptance check: an async run
// with -telemetry set must produce a JSONL report whose summary exposes
// per-operator accept rates, decision-function firing reasons, worker idle
// time and delta fast-path/fallback counts.
func TestRunTelemetryReport(t *testing.T) {
	dir := t.TempDir()
	o := baseOptions()
	o.algName = "asynchronous"
	o.procs = 3
	o.evals = 1500
	o.telemetryOut = filepath.Join(dir, "run.jsonl")
	o.pprofAddr = "127.0.0.1:0"
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(o.telemetryOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var summary map[string]any
	events := map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		name, _ := rec["event"].(string)
		if name == "" {
			t.Fatalf("record without event tag: %v", rec)
		}
		if _, ok := rec["ts"].(string); !ok {
			t.Fatalf("record without ts: %v", rec)
		}
		events[name]++
		if name == "summary" {
			summary = rec
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if events["run_start"] != 1 || events["summary"] != 1 {
		t.Fatalf("want one run_start and one summary event, got %v", events)
	}
	if events["snapshot"] == 0 {
		t.Errorf("no front-quality snapshot events in %v", events)
	}

	counters, ok := summary["counters"].(map[string]any)
	if !ok {
		t.Fatal("summary has no counters object")
	}
	// Per-operator accept rates.
	operators, ok := counters["operators"].(map[string]any)
	if !ok || len(operators) == 0 {
		t.Fatalf("no operator stats: %v", counters["operators"])
	}
	for name, v := range operators {
		op := v.(map[string]any)
		for _, key := range []string{"proposed", "selected", "accepted", "select_rate", "accept_rate"} {
			if _, ok := op[key]; !ok {
				t.Errorf("operator %s missing %s: %v", name, key, op)
			}
		}
	}
	// Decision-function firing reasons.
	async := counters["async"].(map[string]any)
	fires, ok := async["decision_fires"].(map[string]any)
	if !ok {
		t.Fatal("async counters missing decision_fires")
	}
	total := 0.0
	for _, reason := range []string{"idle_worker", "dominating_candidate", "timeout", "budget_exhausted"} {
		n, ok := fires[reason].(float64)
		if !ok {
			t.Errorf("decision_fires missing reason %s: %v", reason, fires)
		}
		total += n
	}
	if total == 0 {
		t.Error("decision function never fired in an async run")
	}
	// Worker idle time.
	worker := counters["worker"].(map[string]any)
	if idle, ok := worker["idle_seconds"].(float64); !ok || idle <= 0 {
		t.Errorf("worker idle_seconds not positive: %v", worker["idle_seconds"])
	}
	// Delta-evaluation count: every candidate takes the one path.
	delta := counters["delta"].(map[string]any)
	if fast, ok := delta["fast"].(float64); !ok || fast == 0 {
		t.Errorf("delta fast-path count not positive: %v", delta["fast"])
	}
	if len(delta) != 1 {
		t.Errorf("delta counters hold more than the fast path: %v", delta)
	}
	// Search counters made it through too.
	search := counters["search"].(map[string]any)
	if n, _ := search["iterations"].(float64); n == 0 {
		t.Error("search iterations counter is zero")
	}
}

// TestRunWithFaults drives the -faults flag end to end: a synchronous run
// that loses a worker mid-flight must still complete, and the telemetry
// summary must account for the injected crash and the recovery.
func TestRunWithFaults(t *testing.T) {
	dir := t.TempDir()
	o := baseOptions()
	o.algName = "synchronous"
	o.procs = 3
	o.evals = 1500
	o.faults = "1:crash@2"
	o.telemetryOut = filepath.Join(dir, "run.jsonl")
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(o.telemetryOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var summary map[string]any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if name, _ := rec["event"].(string); name == "summary" {
			summary = rec
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	counters, ok := summary["counters"].(map[string]any)
	if !ok {
		t.Fatal("summary has no counters object")
	}
	faults, ok := counters["faults"].(map[string]any)
	if !ok {
		t.Fatalf("no fault stats in summary: %v", counters["faults"])
	}
	if n, _ := faults["crashes"].(float64); n == 0 {
		t.Errorf("crashes counter is zero: %v", faults)
	}
	if n, _ := faults["worker_evictions"].(float64); n == 0 {
		t.Errorf("worker_evictions counter is zero: %v", faults)
	}
}
