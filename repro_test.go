package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// frontDigest hashes a front's objectives (exact bits) and routes, in
// order, so a baseline's whole trajectory is pinned by one string.
func frontDigest(front []*Solution) string {
	h := sha256.New()
	for _, s := range front {
		fmt.Fprintf(h, "%x %x %x %v\n", math.Float64bits(s.Obj.Distance),
			math.Float64bits(s.Obj.Vehicles), math.Float64bits(s.Obj.Tardiness), s.Routes)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestFacadeEndToEnd exercises the public API the way the README's
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	in, err := Generate(GenConfig{Class: R1, N: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxEvaluations = 2000
	cfg.NeighborhoodSize = 50
	cfg.Seed = 4

	res, err := Solve(Sequential, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FeasibleFront()) == 0 {
		t.Fatal("no feasible solutions")
	}

	cfg.Processors = 3
	par, err := SolveOn(Asynchronous, in, cfg, NewSimRuntime(Origin3800()))
	if err != nil {
		t.Fatal(err)
	}
	if par.Elapsed >= res.Elapsed {
		t.Logf("note: async (%.1f) not faster than sequential (%.1f) at this tiny scale", par.Elapsed, res.Elapsed)
	}

	a := FrontObjectives(res.Front, true)
	b := FrontObjectives(par.Front, true)
	if c := Coverage(a, b); c < 0 || c > 1 {
		t.Errorf("coverage out of range: %g", c)
	}
}

func TestFacadeSolomonRoundTrip(t *testing.T) {
	in, err := Generate(GenConfig{Class: C1, N: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSolomon(&buf, in); err != nil {
		t.Fatal(err)
	}
	back, err := ParseSolomon(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != in.N() {
		t.Fatalf("N mismatch after round trip: %d vs %d", back.N(), in.N())
	}
}

func TestFacadeParsers(t *testing.T) {
	if c, err := ParseClass("rc1"); err != nil || c != RC1 {
		t.Errorf("ParseClass: %v, %v", c, err)
	}
	if a, err := ParseAlgorithm("collaborative"); err != nil || a != Collaborative {
		t.Errorf("ParseAlgorithm: %v, %v", a, err)
	}
}

func TestFacadeNSGA2(t *testing.T) {
	in, err := Generate(GenConfig{Class: R1, N: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveNSGA2(in, NSGA2Config{PopulationSize: 16, MaxEvaluations: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty NSGA-II front")
	}
	if got, want := frontDigest(res.Front), "765aa2dfaea2e547"; got != want {
		t.Errorf("NSGA-II front digest %s, want %s", got, want)
	}
}

func TestFacadeGoroutineBackend(t *testing.T) {
	in, err := Generate(GenConfig{Class: R2, N: 30, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxEvaluations = 1000
	cfg.NeighborhoodSize = 40
	cfg.Processors = 2
	res, err := SolveOn(Collaborative, in, cfg, NewGoroutineRuntime())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty front on goroutine backend")
	}
}

func TestFacadeMOTSAndStats(t *testing.T) {
	in, err := Generate(GenConfig{Class: R1, N: 30, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveMOTS(in, MOTSConfig{Points: 3, MaxEvaluations: 4000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 {
		t.Fatal("empty MOTS front")
	}
	if got, want := frontDigest(res.Front), "927be20ab59e82fd"; got != want {
		t.Errorf("MOTS front digest %s, want %s", got, want)
	}
	// RuntimeStats through the facade.
	cfg := DefaultConfig()
	cfg.MaxEvaluations = 500
	cfg.NeighborhoodSize = 30
	cfg.Processors = 3
	rt := NewSimRuntime(Origin3800())
	if _, err := SolveOn(Asynchronous, in, cfg, rt); err != nil {
		t.Fatal(err)
	}
	stats := RuntimeStats(rt)
	if len(stats) != 3 {
		t.Fatalf("got %d proc stats, want 3", len(stats))
	}
	if stats[0].MsgsSent == 0 {
		t.Error("master sent no messages")
	}
}

func TestFacadeWeighted(t *testing.T) {
	in, err := Generate(GenConfig{Class: C1, N: 25, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := SolveWeighted(in, WeightedConfig{
		Weights:          WeightLattice(1),
		MaxEvaluations:   4000,
		NeighborhoodSize: 20,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Front) == 0 || len(res.PerWeight) != 3 {
		t.Fatalf("unexpected weighted result: %d front, %d per-weight", len(res.Front), len(res.PerWeight))
	}
	if got, want := frontDigest(res.Front), "dd809e20eb213a0e"; got != want {
		t.Errorf("weighted-sum front digest %s, want %s", got, want)
	}
}
