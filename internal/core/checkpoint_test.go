package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/deme"
	"repro/internal/vrptw"
)

// runWithCheckpoints runs the algorithm on a fresh simulator with a sink
// that round-trips every checkpoint through Encode/Decode — so the golden
// comparison also covers serialization.
func runWithCheckpoints(t *testing.T, alg Algorithm, in *vrptw.Instance, cfg Config) (*Result, []*Checkpoint) {
	t.Helper()
	var cks []*Checkpoint
	cfg.CheckpointSink = func(ck *Checkpoint) error {
		data, err := EncodeCheckpoint(ck)
		if err != nil {
			return err
		}
		dec, err := DecodeCheckpoint(data)
		if err != nil {
			return err
		}
		cks = append(cks, dec)
		return nil
	}
	res, err := Run(alg, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res, cks
}

// sameResult asserts bit-identity of everything a caller can observe:
// objectives and routes of the merged front (in order), evaluation and
// iteration counters, virtual elapsed time, and the convergence samples.
func sameResult(t *testing.T, want, got *Result) {
	t.Helper()
	if got.Evaluations != want.Evaluations {
		t.Errorf("evaluations: got %d, want %d", got.Evaluations, want.Evaluations)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("iterations: got %d, want %d", got.Iterations, want.Iterations)
	}
	if got.Elapsed != want.Elapsed {
		t.Errorf("elapsed: got %v, want %v", got.Elapsed, want.Elapsed)
	}
	if len(got.Front) != len(want.Front) {
		t.Fatalf("front size: got %d, want %d", len(got.Front), len(want.Front))
	}
	for i := range want.Front {
		if got.Front[i].Obj != want.Front[i].Obj {
			t.Errorf("front[%d] objectives: got %+v, want %+v", i, got.Front[i].Obj, want.Front[i].Obj)
		}
		w, g := want.Front[i].Routes, got.Front[i].Routes
		if len(w) != len(g) {
			t.Errorf("front[%d]: got %d routes, want %d", i, len(g), len(w))
			continue
		}
		for r := range w {
			if len(w[r]) != len(g[r]) {
				t.Errorf("front[%d] route %d: got %v, want %v", i, r, g[r], w[r])
				continue
			}
			for k := range w[r] {
				if w[r][k] != g[r][k] {
					t.Errorf("front[%d] route %d: got %v, want %v", i, r, g[r], w[r])
					break
				}
			}
		}
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("samples: got %d, want %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Errorf("sample[%d]: got %+v, want %+v", i, got.Samples[i], want.Samples[i])
		}
	}
}

// TestResumeBitIdentical is the checkpointing golden test: for every
// supported variant and several seeds, a run resumed from any of its
// checkpoints must reproduce the uninterrupted run exactly — front
// objectives and routes, counters, virtual time, convergence samples.
func TestResumeBitIdentical(t *testing.T) {
	in := testInstance(t, 25)
	for _, alg := range []Algorithm{Sequential, Synchronous, Asynchronous, Collaborative} {
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%v/seed%d", alg, seed), func(t *testing.T) {
				cfg := smallConfig()
				cfg.MaxEvaluations = 2000
				cfg.NeighborhoodSize = 40
				cfg.Seed = seed
				cfg.SampleEvery = 500
				cfg.CheckpointEvery = 8
				if alg != Sequential {
					cfg.Processors = 4
				}
				ref, cks := runWithCheckpoints(t, alg, in, cfg)
				if len(cks) == 0 {
					t.Fatal("reference run produced no checkpoints")
				}
				// Resume from the first, a middle and the last checkpoint.
				picks := map[int]bool{0: true, len(cks) / 2: true, len(cks) - 1: true}
				for idx := range picks {
					ck := cks[idx]
					res, err := ResumeContext(t.Context(), ck, in, cfg, deme.NewSim(deme.Origin3800()))
					if err != nil {
						t.Fatalf("resume from barrier %d: %v", ck.Barrier, err)
					}
					t.Logf("barrier %d: evals %d -> %d", ck.Barrier, sumPartEvals(ck), res.Evaluations)
					sameResult(t, ref, res)
				}
			})
		}
	}
}

func sumPartEvals(ck *Checkpoint) int {
	n := 0
	for _, p := range ck.Parts {
		n += p.Evals
	}
	return n
}

// TestResumeRejectsMismatch checks the digest and shape guards: a resumed
// run must refuse a different instance, a different config, or a corrupted
// encoding.
func TestResumeRejectsMismatch(t *testing.T) {
	in := testInstance(t, 20)
	cfg := smallConfig()
	cfg.MaxEvaluations = 800
	cfg.NeighborhoodSize = 30
	cfg.CheckpointEvery = 5
	_, cks := runWithCheckpoints(t, Sequential, in, cfg)
	if len(cks) == 0 {
		t.Fatal("no checkpoints")
	}
	ck := cks[0]

	other, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.C1, N: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeContext(t.Context(), ck, other, cfg, deme.NewSim(deme.Ideal())); err == nil {
		t.Error("resume accepted a different instance")
	}
	bad := cfg
	bad.TabuTenure++
	if _, err := ResumeContext(t.Context(), ck, in, bad, deme.NewSim(deme.Ideal())); err == nil {
		t.Error("resume accepted a different config")
	}

	data, err := EncodeCheckpoint(ck)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40 // flip a payload bit
	if _, err := DecodeCheckpoint(data); err == nil {
		t.Error("decode accepted a corrupted checkpoint")
	}

	// Coordination parameters a resume would adopt, each of which keeps
	// the resumed run from ever returning: decode refuses them even under
	// a valid checksum.
	for _, edit := range []func(*Checkpoint){
		func(ck *Checkpoint) { ck.RecvTimeout = -1 },
		func(ck *Checkpoint) { ck.WaitTimeout = -1 },
		func(ck *Checkpoint) { ck.EvictAfter = -1 },
	} {
		bad := *ck
		edit(&bad)
		data, err := EncodeCheckpoint(&bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCheckpoint(data); err == nil {
			t.Errorf("decode accepted wait %v, recv %v, evict %d", bad.WaitTimeout, bad.RecvTimeout, bad.EvictAfter)
		}
	}
}

// TestResumeChecksRoutes corrupts the routes of one searcher part in
// each route set it restores: a customer past N in its current solution,
// a customer routed twice in M_nondom, one left out of the archive, and
// an empty route in a pending candidate. The digests cover the instance
// and the config, not the routes, so each corrupted checkpoint encodes,
// decodes and matches the run; ResumeContext must refuse it, naming the
// part, before any process starts rather than fail or search on inside
// one.
func TestResumeChecksRoutes(t *testing.T) {
	in := testInstance(t, 40)
	cfg := smallConfig()
	cfg.MaxEvaluations = 1500
	cfg.NeighborhoodSize = 30
	cfg.CheckpointEvery = 5
	cfg.Processors = 3
	_, cks := runWithCheckpoints(t, Asynchronous, in, cfg)
	var base []byte
	for _, ck := range cks {
		if len(ck.Parts[0].Pending) > 0 {
			var err error
			if base, err = EncodeCheckpoint(ck); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if base == nil {
		t.Fatal("no checkpoint holds pending candidates")
	}
	grow := func(r []int, c ...int) []int { return append(append([]int(nil), r...), c...) }
	for name, edit := range map[string]func(*SearcherState){
		"customer past N in cur": func(st *SearcherState) { st.Cur[0] = grow(st.Cur[0], in.N()+5) },
		"customer twice in nondom": func(st *SearcherState) {
			st.Nondom[0][0] = grow(st.Nondom[0][0], st.Nondom[0][1][0])
		},
		"customer missing from archive": func(st *SearcherState) {
			last := len(st.Archive[0]) - 1
			st.Archive[0] = append(append([][]int(nil), st.Archive[0][:last]...), grow(st.Archive[0][last])[1:])
		},
		"empty route in pending": func(st *SearcherState) {
			st.Pending[0].Routes = append(append([][]int(nil), st.Pending[0].Routes...), []int{})
		},
	} {
		t.Run(name, func(t *testing.T) {
			ck, err := DecodeCheckpoint(base)
			if err != nil {
				t.Fatal(err)
			}
			edit(ck.Parts[0])
			data, err := EncodeCheckpoint(ck)
			if err != nil {
				t.Fatal(err)
			}
			if ck, err = DecodeCheckpoint(data); err != nil {
				t.Fatalf("decode refused the corrupted routes: %v", err)
			}
			_, err = ResumeContext(t.Context(), ck, in, cfg, deme.NewSim(deme.Origin3800()))
			if err == nil || !strings.Contains(err.Error(), "checkpoint part 0") || strings.Contains(err.Error(), "panicked") {
				t.Fatalf("resume = %v; want the route check to refuse part 0", err)
			}
		})
	}
}

// TestCheckpointConfigGuards checks that incompatible run modes are
// rejected up front rather than producing unresumable checkpoints.
func TestCheckpointConfigGuards(t *testing.T) {
	in := testInstance(t, 20)
	cfg := smallConfig()
	cfg.CheckpointEvery = 5

	bad := cfg
	bad.RecordTrajectory = true
	if _, err := Run(Sequential, in, bad, deme.NewSim(deme.Ideal())); err == nil {
		t.Error("checkpointing accepted RecordTrajectory")
	}
	bad = cfg
	bad.MaxSeconds = 100
	if _, err := Run(Sequential, in, bad, deme.NewSim(deme.Ideal())); err == nil {
		t.Error("checkpointing accepted MaxSeconds")
	}
	bad = cfg
	bad.Processors = 4
	bad.Islands = 2
	if _, err := Run(Combined, in, bad, deme.NewSim(deme.Ideal())); err == nil {
		t.Error("checkpointing accepted the combined variant")
	}
}

// TestResumeParentCheckpoint resumes from checkpoints written by earlier
// versions, each the second barrier of the run below: one from before the
// convergence samples carried iteration, nondom size, hypervolume and
// spacing (testdata/parent_checkpoint.json), and one cut with the since
// deleted EvalWorkers knob set to 2, whose payload still carries
// "eval_workers":2 (testdata/parent_checkpoint_eval_workers.json). Each
// must decode and finish on the uninterrupted run's front, with the
// fields the old samples did carry unchanged.
func TestResumeParentCheckpoint(t *testing.T) {
	in := testInstance(t, 20)
	cfg := smallConfig()
	cfg.MaxEvaluations = 1200
	cfg.NeighborhoodSize = 30
	cfg.SampleEvery = 200
	cfg.CheckpointEvery = 10
	ref, err := Run(Sequential, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatal(err)
	}
	for _, fixture := range []string{"parent_checkpoint.json", "parent_checkpoint_eval_workers.json"} {
		t.Run(fixture, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			ck, err := DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			res, err := ResumeContext(t.Context(), ck, in, cfg, deme.NewSim(deme.Origin3800()))
			if err != nil {
				t.Fatal(err)
			}
			if res.Evaluations != ref.Evaluations || res.Elapsed != ref.Elapsed || len(res.Front) != len(ref.Front) {
				t.Fatalf("resumed run: %d evals, %v s, %d front; want %d, %v, %d",
					res.Evaluations, res.Elapsed, len(res.Front), ref.Evaluations, ref.Elapsed, len(ref.Front))
			}
			for i := range ref.Front {
				if res.Front[i].Obj != ref.Front[i].Obj {
					t.Errorf("front[%d]: got %+v, want %+v", i, res.Front[i].Obj, ref.Front[i].Obj)
				}
			}
			if len(res.Samples) != len(ref.Samples) {
				t.Fatalf("samples: got %d, want %d", len(res.Samples), len(ref.Samples))
			}
			for i, want := range ref.Samples {
				got := res.Samples[i]
				if got.Evals != want.Evals || got.Time != want.Time || got.ArchiveSize != want.ArchiveSize ||
					got.BestDistance != want.BestDistance || got.BestVehicles != want.BestVehicles {
					t.Errorf("sample[%d]: got %+v, want %+v", i, got, want)
				}
			}
		})
	}
}

// TestDecodeOneSidedSample takes a real checkpoint and makes one of its
// convergence samples one-sided — a best feasible distance without a
// best vehicle count, then the reverse. Each best-feasible field is
// encoded on its own, so the checkpoint decodes, re-encodes and decodes
// back to the same value, the one-sided sample included.
func TestDecodeOneSidedSample(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxEvaluations = 400
	cfg.NeighborhoodSize = 12
	cfg.SampleEvery = 20
	cfg.CheckpointEvery = 3
	_, cks := runWithCheckpoints(t, Sequential, testInstance(t, 12), cfg)
	if len(cks) == 0 || len(cks[len(cks)-1].Parts[0].Samples) == 0 {
		t.Fatal("the run produced no checkpoint with samples")
	}
	enc, err := EncodeCheckpoint(cks[len(cks)-1])
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range []string{"distance only", "vehicles only"} {
		ck, err := DecodeCheckpoint(enc)
		if err != nil {
			t.Fatal(err)
		}
		sm := &ck.Parts[0].Samples[0]
		sm.BestDistance, sm.BestVehicles = 812.25, 9
		if side == "distance only" {
			sm.BestVehicles = math.Inf(1)
		} else {
			sm.BestDistance = math.Inf(1)
		}
		want := *sm
		var got [2]*Checkpoint
		for i := range got {
			data, err := EncodeCheckpoint(ck)
			if err != nil {
				t.Fatalf("%s: encode %d: %v", side, i, err)
			}
			if got[i], err = DecodeCheckpoint(data); err != nil {
				t.Fatalf("%s: decode %d: %v", side, i, err)
			}
			ck = got[i]
		}
		if s := got[0].Parts[0].Samples[0]; s != want {
			t.Errorf("%s: decoded sample %+v, want %+v", side, s, want)
		}
		canonicalEmpty(reflect.ValueOf(got[0]))
		canonicalEmpty(reflect.ValueOf(got[1]))
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Errorf("%s: the checkpoint changed on its second round trip", side)
		}
	}
}
