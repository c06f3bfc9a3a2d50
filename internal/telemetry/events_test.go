package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// TestConvergenceSampleJSON pins the sample's wire form: every field
// round-trips exactly, the +Inf sentinel (no feasible solution yet) is
// omitted and restored, and a mixed slice — the Result.Samples shape —
// still marshals.
func TestConvergenceSampleJSON(t *testing.T) {
	infSample := ConvergenceSample{
		Evals:        500,
		Iteration:    3,
		Time:         1.25,
		ArchiveSize:  3,
		NondomSize:   7,
		BestDistance: math.Inf(1),
		BestVehicles: math.Inf(1),
		Hypervolume:  0,
		Spacing:      0,
	}
	b, err := json.Marshal(infSample)
	if err != nil {
		t.Fatalf("marshaling the +Inf sample: %v", err)
	}
	if strings.Contains(string(b), "best_distance") || strings.Contains(string(b), "best_vehicles") {
		t.Errorf("+Inf fields not omitted: %s", b)
	}
	var back ConvergenceSample
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != infSample {
		t.Errorf("+Inf sample did not round-trip: %+v vs %+v", back, infSample)
	}

	finite := ConvergenceSample{
		Evals: 1000, Iteration: 9, Time: 2.0000000000000004, ArchiveSize: 9, NondomSize: 12,
		BestDistance: 321.5, BestVehicles: 7, Hypervolume: 12345.678901234567, Spacing: 0.1 + 0.2,
	}
	b, err = json.Marshal(finite)
	if err != nil {
		t.Fatal(err)
	}
	var wire map[string]any
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"evals", "iteration", "time", "archive_size", "nondom_size", "best_distance", "best_vehicles", "hypervolume", "spacing"} {
		if _, ok := wire[k]; !ok {
			t.Errorf("wire form lacks %q: %s", k, b)
		}
	}
	var back2 ConvergenceSample
	if err := json.Unmarshal(b, &back2); err != nil {
		t.Fatal(err)
	}
	if back2 != finite {
		t.Errorf("finite sample did not round-trip: %+v vs %+v", back2, finite)
	}

	if _, err := json.Marshal([]ConvergenceSample{infSample, finite}); err != nil {
		t.Errorf("marshaling mixed samples: %v", err)
	}
}

// TestConvergenceSampleBestFieldsIndependent round-trips the four
// finite/+Inf combinations of the two best-feasible fields: each is
// omitted on its own while it holds +Inf, and restored on decode.
func TestConvergenceSampleBestFieldsIndependent(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct{ dist, veh float64 }{{321.5, 7}, {321.5, inf}, {inf, 7}, {inf, inf}} {
		s := ConvergenceSample{Evals: 1000, Iteration: 9, Time: 2.5, ArchiveSize: 9, NondomSize: 12,
			BestDistance: c.dist, BestVehicles: c.veh, Hypervolume: 12.5, Spacing: 0.25}
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("distance %v, vehicles %v: %v", c.dist, c.veh, err)
		}
		if got := strings.Contains(string(b), `"best_distance"`); got != !math.IsInf(c.dist, 1) {
			t.Errorf("distance %v: best_distance present = %t in %s", c.dist, got, b)
		}
		if got := strings.Contains(string(b), `"best_vehicles"`); got != !math.IsInf(c.veh, 1) {
			t.Errorf("vehicles %v: best_vehicles present = %t in %s", c.veh, got, b)
		}
		var back ConvergenceSample
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Errorf("sample did not round-trip: %+v vs %+v", back, s)
		}
	}
}

// TestEventSinksShareRendering checks that the JSONL writer renders an
// event's fields and the hook receives the typed value itself.
func TestEventSinksShareRendering(t *testing.T) {
	var buf bytes.Buffer
	tel := New(nil, NewWriter(&buf))
	var got []Event
	tel.SetHook(func(ev Event) { got = append(got, ev) })
	ev := SnapshotEvent{Proc: 2, HVRef: Objectives{Distance: 3, Vehicles: 4, Tardiness: 5},
		Sample: ConvergenceSample{Evals: 10, BestDistance: math.Inf(1), BestVehicles: math.Inf(1)}}
	tel.Event(ev)
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != Event(ev) {
		t.Fatalf("hook received %v, want the typed event", got)
	}
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	_, want := ev.Render()
	for k := range want {
		if _, ok := line[k]; !ok {
			t.Errorf("JSONL line lacks %q: %v", k, line)
		}
	}
	if len(line) != len(want)+2 || line["event"] != "snapshot" {
		t.Errorf("JSONL line = %v, want the snapshot fields plus ts and event", line)
	}
}
