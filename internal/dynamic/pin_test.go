package dynamic

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// mutatedPinGolden holds the pinned outputs of mutatedPinOutput.
const mutatedPinGolden = "testdata/mutated_pin.golden"

// mutatedPinOutput runs one mutated simulator run per checkpointable
// variant — N=40, default operators, SampleEvery set, telemetry and a
// traced context attached, two mutation epochs — and renders its
// counters, exact virtual elapsed time, a digest of the merged front
// (objective bits plus routes), the convergence samples, the Snapshot()
// JSON, the span-name counts, and a digest of every encoded checkpoint
// the sink receives.
func mutatedPinOutput(t *testing.T) string {
	t.Helper()
	in := testInstance(t, 40)
	var out strings.Builder
	for _, alg := range []core.Algorithm{core.Sequential, core.Synchronous, core.Asynchronous, core.Collaborative} {
		cfg := testConfig(5)
		cfg.MaxEvaluations = 3000
		if alg != core.Sequential {
			cfg.Processors = 3
		}
		sc := NewSchedule()
		if err := sc.AddAt(2, testBatch(in)[:2]); err != nil {
			t.Fatal(err)
		}
		if err := sc.AddAt(5, testBatch(in)[2:]); err != nil {
			t.Fatal(err)
		}
		cfg.Dynamic = sc
		var cks []string
		cfg.CheckpointSink = func(ck *core.Checkpoint) error {
			data, err := core.EncodeCheckpoint(ck)
			if err != nil {
				return err
			}
			sum := sha256.Sum256(data)
			cks = append(cks, fmt.Sprintf("%d:%x", ck.Barrier, sum[:12]))
			return nil
		}
		cfg.Telemetry = telemetry.New(nil, nil)
		tr := trace.New(1 << 16)
		res, err := core.RunContext(trace.NewContext(context.Background(), tr, nil), alg, in, cfg, deme.NewSim(deme.Origin3800()))
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if got := len(sc.Reports()); got != 2 {
			t.Fatalf("%s: applied %d epochs, want 2", alg, got)
		}

		front := sha256.New()
		for _, s := range res.Front {
			for _, v := range s.Obj.Values() {
				fmt.Fprintf(front, "%016x ", math.Float64bits(v))
			}
			fmt.Fprintf(front, "%v\n", s.Routes)
		}
		samples, err := json.Marshal(res.Samples)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := json.Marshal(cfg.Telemetry.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		spans, dropped := tr.Snapshot()
		counts := map[string]int{}
		for _, d := range spans {
			counts[d.Name]++
		}
		var names []string
		for n, c := range counts {
			names = append(names, fmt.Sprintf("%s=%d", n, c))
		}
		sort.Strings(names)
		fmt.Fprintf(&out, "== %s\nresult evals=%d iters=%d shares=%d elapsed=%016x front=%d:%x\n",
			alg, res.Evaluations, res.Iterations, res.Shares, math.Float64bits(res.Elapsed),
			len(res.Front), front.Sum(nil)[:12])
		fmt.Fprintf(&out, "samples %s\nsnapshot %s\nspans dropped=%d %s\ncheckpoints %s\n",
			samples, snap, dropped, strings.Join(names, " "), strings.Join(cks, " "))
	}
	return out.String()
}

// TestMutatedOutputsPinned pins what a mutated run of every checkpointable
// variant produces, so a change to the barrier, halt and warm-restart
// paths that shifts a message, a draw or a counter fails against fixed
// bytes rather than only against a second run of the same code.
func TestMutatedOutputsPinned(t *testing.T) {
	want, err := os.ReadFile(mutatedPinGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := mutatedPinOutput(t)
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
			t.Fatalf("%s line %d:\n got  %q\n want %q", mutatedPinGolden, i+1, g, w)
		}
	}
}
