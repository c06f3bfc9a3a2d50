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
	"repro/internal/vrptw"
)

// The pinned outputs of mutatedPinOutput: dense neighborhoods with
// testBatch, and granular ones with granularBatch.
const (
	mutatedPinGolden         = "testdata/mutated_pin.golden"
	granularMutatedPinGolden = "testdata/granular_mutated_pin.golden"
)

// mutatedPinOutput runs one mutated simulator run per checkpointable
// variant — N=40, default operators drawn from granular neighborhoods of
// granularK when it is positive, SampleEvery set, telemetry and a traced
// context attached, the first two mutations of batch at barrier 2 and
// the rest at barrier 5 — and renders its counters, exact virtual
// elapsed time, a digest of the merged front (objective bits plus
// routes), the convergence samples, the Snapshot() JSON, the span-name
// counts, and a digest of every encoded checkpoint the sink receives.
func mutatedPinOutput(t *testing.T, granularK int, batch func(*vrptw.Instance) []Mutation) string {
	t.Helper()
	in := testInstance(t, 40)
	var out strings.Builder
	for _, alg := range []core.Algorithm{core.Sequential, core.Synchronous, core.Asynchronous, core.Collaborative} {
		cfg := testConfig(5)
		cfg.MaxEvaluations = 3000
		cfg.GranularK = granularK
		if alg != core.Sequential {
			cfg.Processors = 3
		}
		sc := NewSchedule()
		if err := sc.AddAt(2, batch(in)[:2]); err != nil {
			t.Fatal(err)
		}
		if err := sc.AddAt(5, batch(in)[2:]); err != nil {
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
	checkPinned(t, mutatedPinGolden, mutatedPinOutput(t, 0, testBatch))
}

// granularBatch is testBatch's four kinds of mutation aimed at customers
// the granular lists of the N=40 instance lean on (testBatch's cancelled
// customer 9 sits in no customer row): customer 26, re-windowed at the
// first epoch, sits in 9 customer rows at k=5 and 14 at k=12; customer
// 36, cancelled at the second, in 9 and 14 of the rows it is cancelled
// from; and the new arrival lands beside customer 6 (7 and 14) with its
// window. The warm restarts then search lists carried across a window
// change, a cancellation and an arrival.
func granularBatch(in *vrptw.Instance) []Mutation {
	s6, s26 := in.Sites[6], in.Sites[26]
	return []Mutation{
		{Version: 1, Op: ShiftWindow, Customer: 26, Ready: s26.Ready + 40, Due: s26.Due + 40},
		{Version: 1, Op: UpdateDemand, Customer: 7, Demand: in.Sites[7].Demand + 5},
		{Version: 1, Op: CancelCustomer, Customer: 36},
		{Version: 1, Op: AddCustomer, Site: &vrptw.Site{
			X: s6.X + 2, Y: s6.Y - 1, Demand: 10,
			Ready: s6.Ready, Due: s6.Due, Service: s6.Service,
		}},
	}
}

// TestGranularMutatedOutputsPinned pins the mutated runs of every
// checkpointable variant at GranularK 5 and 12, so the neighbor lists a
// derived instance carries over from its parent are held to fixed bytes:
// a carried row that differs from a fresh build shifts the warm restart's
// draws.
func TestGranularMutatedOutputsPinned(t *testing.T) {
	var out strings.Builder
	for _, k := range []int{5, 12} {
		fmt.Fprintf(&out, "## granular_k=%d\n", k)
		out.WriteString(mutatedPinOutput(t, k, granularBatch))
	}
	checkPinned(t, granularMutatedPinGolden, out.String())
}

// checkPinned fails t at the first line where got differs from the
// golden file.
func checkPinned(t *testing.T, golden, got string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
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
			t.Fatalf("%s line %d:\n got  %q\n want %q", golden, i+1, g, w)
		}
	}
}
