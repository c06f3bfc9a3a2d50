package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/construct"
	"repro/internal/deme"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// variantPinGolden holds the pinned outputs of variantPinOutput.
const variantPinGolden = "testdata/variant_pin.golden"

// pinShare is a ShareExchange whose every gather returns the same valid
// sibling batch; it keeps what it was handed so checkpoints capture a real
// publish history.
type pinShare struct {
	batch [][][]int
	sent  []ShareBatch
}

func (s *pinShare) Publish(b ShareBatch)  { s.sent = append(s.sent, b) }
func (s *pinShare) History() []ShareBatch { return append([]ShareBatch(nil), s.sent...) }
func (s *pinShare) Prime(h []ShareBatch)  { s.sent = append(s.sent[:0], h...) }
func (s *pinShare) Gather(_ context.Context, epoch int) ([]ShareBatch, error) {
	return []ShareBatch{{Shard: 1, Epoch: epoch, Solutions: s.batch}}, nil
}

// pinSiblingBatch builds two valid foreign solutions for the instance: I1
// constructions with the default and with seeded random parameters.
func pinSiblingBatch(in *vrptw.Instance) [][][]int {
	a := construct.I1(in, construct.DefaultParams())
	b := construct.I1(in, construct.RandomParams(rng.New(3)))
	return [][][]int{a.Routes, b.Routes}
}

// pinDigest is the short hex digest used for the long fields of a pin row.
func pinDigest(h hash.Hash) string { return fmt.Sprintf("%x", h.Sum(nil)[:12]) }

// pinResultRows renders everything a caller and an operator observe of one
// finished run: counters, the exact virtual elapsed time, a digest of the
// merged front (objective bits plus routes, in order), the convergence
// samples, the telemetry Snapshot() JSON, and the span names recorded
// under the run's traced context.
func pinResultRows(t testing.TB, res *Result, tel *telemetry.Telemetry, tr *trace.Trace) string {
	t.Helper()
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
	snap, err := json.Marshal(tel.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	spans, dropped := tr.Snapshot()
	counts := map[string]int{}
	for _, d := range spans {
		counts[d.Name]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	var sp strings.Builder
	for _, n := range names {
		fmt.Fprintf(&sp, " %s=%d", n, counts[n])
	}
	return fmt.Sprintf("result evals=%d iters=%d shares=%d elapsed=%016x front=%d:%s\n"+
		"samples %s\nsnapshot %s\nspans dropped=%d%s\n",
		res.Evaluations, res.Iterations, res.Shares, math.Float64bits(res.Elapsed),
		len(res.Front), pinDigest(front), samples, snap, dropped, sp.String())
}

// variantPinOutput runs every variant on the simulator (N=40, default
// operators, SampleEvery set, telemetry and a traced context attached):
// all five plain; the four checkpointable ones with CheckpointEvery set,
// hashing every encoded checkpoint the sink receives; and the same four
// again with a cluster exchange whose gathers return a fixed sibling batch.
func variantPinOutput(t *testing.T) string {
	t.Helper()
	in := testInstance(t, 40)
	var out strings.Builder
	for _, mode := range []string{"plain", "checkpoint", "share"} {
		for _, alg := range []Algorithm{Sequential, Synchronous, Asynchronous, Collaborative, Combined} {
			if alg == Combined && mode != "plain" {
				continue // neither checkpointing nor cluster sharing supports it
			}
			cfg := smallConfig()
			cfg.SampleEvery = 500
			switch alg {
			case Sequential:
			case Combined:
				cfg.Processors, cfg.Islands = 4, 2
			default:
				cfg.Processors = 3
			}
			var cks []string
			if mode != "plain" {
				cfg.CheckpointEvery = 9
				cfg.CheckpointSink = func(ck *Checkpoint) error {
					data, err := EncodeCheckpoint(ck)
					if err != nil {
						return err
					}
					h := sha256.New()
					h.Write(data)
					cks = append(cks, fmt.Sprintf("%d:%s", ck.Barrier, pinDigest(h)))
					return nil
				}
			}
			if mode == "share" {
				cfg.Share = &pinShare{batch: pinSiblingBatch(in)}
				cfg.ShareEvery = 7
			}
			cfg.Telemetry = telemetry.New(nil, nil)
			tr := trace.New(1 << 16)
			ctx := trace.NewContext(context.Background(), tr, nil)
			res, err := RunContext(ctx, alg, in, cfg, deme.NewSim(deme.Origin3800()))
			if err != nil {
				t.Fatalf("%s/%s: %v", alg, mode, err)
			}
			out.WriteString("== " + alg.String() + "/" + mode + "\n")
			out.WriteString(pinResultRows(t, res, cfg.Telemetry, tr))
			if mode != "plain" {
				out.WriteString("checkpoints " + strings.Join(cks, " ") + "\n")
			}
		}
	}
	return out.String()
}

// TestVariantOutputsPinned pins what every TSMO variant produces on a
// seeded simulator run — results, virtual time, samples, telemetry, span
// names and the encoded checkpoints — so a refactor of the variant bodies
// that shifts a single message, draw or counter fails here, not only in
// the self-comparing resume and replay goldens.
func TestVariantOutputsPinned(t *testing.T) {
	want, err := os.ReadFile(variantPinGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := variantPinOutput(t)
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
			t.Fatalf("%s line %d:\n got  %q\n want %q", variantPinGolden, i+1, g, w)
		}
	}
}
