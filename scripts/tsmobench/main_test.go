package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks the runs
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestWorkloadsToyScale runs every workload traced at toy scale through the
// benchmark's own code and checks that each passes its output checks and
// emits exactly the end-to-end and per-layer metrics BENCHMARK.json lists,
// with their units.
func TestWorkloadsToyScale(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range sp.Workloads {
		listed = append(listed, w.Name)
	}
	if !equalSets(listed, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", listed, workloadNames)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			b, err := runWorkload(context.Background(), name, options{seed: 3, sc: toyScale(), traced: true, out: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			res := b.result()
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, b.notes)
			}
			expectMetrics(t, "end-to-end", b.e2e.m, sp.EndToEnd)
			expectMetrics(t, "per-layer", res.Metrics, sp.PerLayer)
		})
	}
}

func expectMetrics(t *testing.T, kind string, got map[string]metric, want []specMetric) {
	t.Helper()
	var names []string
	for _, m := range want {
		names = append(names, m.Name)
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s missing", kind, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s metric %s has unit %q, BENCHMARK.json says %q", kind, m.Name, g.Unit, m.Unit)
		}
	}
	var emitted []string
	for n := range got {
		emitted = append(emitted, n)
	}
	if !equalSets(names, emitted) {
		t.Errorf("%s metrics emitted %v, BENCHMARK.json lists %v", kind, sorted(emitted), sorted(names))
	}
}

func equalSets(a, b []string) bool {
	a, b = sorted(a), sorted(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sorted(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}
