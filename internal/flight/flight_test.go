package flight

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// sample returns a flight sample at the given evaluation count.
func sample(evals int) Sample {
	return Sample{ConvergenceSample: telemetry.ConvergenceSample{Evals: evals}}
}

func mkRecording(hvs ...float64) Recording {
	rec := Recording{Instance: "R1_4_1", Algorithm: "sequential", Seed: 42, SampleEvery: 100}
	for i, hv := range hvs {
		sm := sample((i + 1) * 100)
		sm.Hypervolume, sm.Spacing, sm.ArchiveSize = hv, 0.1, i+1
		rec.Samples = append(rec.Samples, sm)
	}
	return rec
}

func TestDiffIdenticalIsZero(t *testing.T) {
	a := mkRecording(1, 2, 3, 4)
	rows, onlyA, onlyB := Diff(a, a)
	if onlyA != 0 || onlyB != 0 {
		t.Errorf("unmatched samples on identical recordings: %d/%d", onlyA, onlyB)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	if MaxAbsDeltaHV(rows) != 0 {
		t.Errorf("identical recordings diff to %g, want 0", MaxAbsDeltaHV(rows))
	}
}

func TestDiffAlignsAndReportsUnmatched(t *testing.T) {
	a := mkRecording(1, 2, 3)
	b := mkRecording(1, 2.5)
	off := sample(999) // off-grid
	off.Hypervolume = 9
	b.Samples = append(b.Samples, off)
	rows, onlyA, onlyB := Diff(a, b)
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if onlyA != 1 || onlyB != 1 {
		t.Errorf("onlyA/onlyB = %d/%d, want 1/1", onlyA, onlyB)
	}
	if rows[1].DeltaHV() != 0.5 {
		t.Errorf("delta at evals 200 = %g, want 0.5", rows[1].DeltaHV())
	}
	if MaxAbsDeltaHV(rows) != 0.5 {
		t.Errorf("max delta = %g, want 0.5", MaxAbsDeltaHV(rows))
	}
}

func TestWriteTable(t *testing.T) {
	rows, _, _ := Diff(mkRecording(1, 2), mkRecording(1.5, 2))
	var buf bytes.Buffer
	if err := WriteTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "delta_hv") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "+0.5") {
		t.Errorf("missing signed delta:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Errorf("table has %d lines, want 3:\n%s", lines, out)
	}
}

// TestRecordingJSONRoundTrip checks that the flat wire form keeps both the
// solver's sample fields and the service's annotations.
func TestRecordingJSONRoundTrip(t *testing.T) {
	rec := mkRecording(1, 2)
	rec.Job = "j000001"
	rec.Dropped = 5
	rec.Samples[0].AcceptRates = map[string]float64{"relocate": 0.25}
	rec.Samples[0].Time = 4
	rec.Samples[0].BestDistance, rec.Samples[0].BestVehicles = math.Inf(1), math.Inf(1)
	rec.Samples[1].Marker = "mutation@3"
	rec.Samples[1].BestDistance, rec.Samples[1].BestVehicles = 812.5, 9
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		Samples []map[string]any `json:"samples"`
	}
	if err := json.Unmarshal(b, &wire); err != nil {
		t.Fatal(err)
	}
	if got := wire.Samples[0]["evals_per_sec"]; got != 25.0 {
		t.Errorf("evals_per_sec = %v, want 25", got)
	}
	if _, ok := wire.Samples[0]["best_distance"]; ok {
		t.Errorf("+Inf best_distance not omitted: %v", wire.Samples[0])
	}
	var back Recording
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Job != rec.Job || back.Seed != rec.Seed || len(back.Samples) != 2 {
		t.Fatalf("round-trip lost fields: %+v", back)
	}
	if !reflect.DeepEqual(back.Samples, rec.Samples) {
		t.Errorf("samples did not round-trip:\n got %+v\nwant %+v", back.Samples, rec.Samples)
	}
}
