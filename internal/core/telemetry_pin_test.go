package core

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/deme"
	"repro/internal/telemetry"
)

// telemetryPinGolden holds the pinned instrument outputs of
// telemetryPinOutput.
const telemetryPinGolden = "testdata/telemetry_pin.golden"

// telemetryPinOutput runs one seeded sequential and one asynchronous
// (P=3) solve on the simulator with the default operators and renders
// each run's telemetry twice: the Snapshot() JSON tree (the run report's
// summary and the /telemetry endpoint) and the WriteProm exposition (the
// standalone /metrics).
func telemetryPinOutput(t *testing.T) string {
	t.Helper()
	in := testInstance(t, 40)
	var out strings.Builder
	for _, run := range []struct {
		alg   Algorithm
		procs int
	}{{Sequential, 1}, {Asynchronous, 3}} {
		cfg := smallConfig()
		cfg.Processors = run.procs
		cfg.Telemetry = telemetry.New(nil, nil)
		if _, err := Run(run.alg, in, cfg, deme.NewSim(deme.Origin3800())); err != nil {
			t.Fatalf("%s: %v", run.alg, err)
		}
		snap, err := json.MarshalIndent(cfg.Telemetry.Snapshot(), "", " ")
		if err != nil {
			t.Fatal(err)
		}
		var prom bytes.Buffer
		if err := telemetry.WriteProm(&prom, cfg.Telemetry); err != nil {
			t.Fatal(err)
		}
		out.WriteString("== " + run.alg.String() + " snapshot\n")
		out.Write(snap)
		out.WriteString("\n== " + run.alg.String() + " prom\n")
		out.Write(prom.Bytes())
	}
	return out.String()
}

// TestTelemetryOutputsPinned pins the byte-exact Snapshot() JSON and
// Prometheus exposition of two seeded simulator runs, so a change to how
// the instruments are stored or enumerated cannot silently rename, drop or
// reformat a series.
func TestTelemetryOutputsPinned(t *testing.T) {
	want, err := os.ReadFile(telemetryPinGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := telemetryPinOutput(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", telemetryPinGolden, i+1, g, w)
		}
	}
}
