package core

import (
	"testing"

	"repro/internal/deme"
	"repro/internal/rng"
)

// granularVariants is the algorithm × processor matrix the granular
// determinism test sweeps.
var granularVariants = []struct {
	alg   Algorithm
	procs int
}{
	{Sequential, 1},
	{Synchronous, 3},
	{Asynchronous, 3},
	{Collaborative, 3},
	{Combined, 4},
}

// TestGranularDeterministicOnSim pins granular-run determinism on every
// variant: two runs with the same seed are bit-identical, and the granular
// trajectory actually differs from the full-neighborhood one (the sparse
// graph is load-bearing, not a no-op).
func TestGranularDeterministicOnSim(t *testing.T) {
	in := testInstance(t, 40)
	for _, v := range granularVariants {
		t.Run(v.alg.String(), func(t *testing.T) {
			cfg := smallConfig()
			cfg.Processors = v.procs
			cfg.GranularK = 15
			run := func() *Result {
				res, err := Run(v.alg, in, cfg, deme.NewSim(deme.Origin3800()))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			sameResult(t, run(), run())
		})
	}
	// Sequential granular vs full: the neighborhoods must differ.
	cfg := smallConfig()
	cfg.GranularK = 15
	gran, err := Run(Sequential, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatal(err)
	}
	cfg.GranularK = 0
	full, err := Run(Sequential, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatal(err)
	}
	if gran.BestDistance() == full.BestDistance() && gran.Iterations == full.Iterations {
		t.Error("granular run identical to full-neighborhood run; sparse graph had no effect")
	}
}

// TestGenerateZeroAlloc is the searcher-level zero-alloc gate: after
// warm-up, a full generate sweep — granular proposals, delta evaluation,
// candidate assembly — must not allocate.
func TestGenerateZeroAlloc(t *testing.T) {
	in := testInstance(t, 100)
	cfg := DefaultConfig()
	cfg.MaxEvaluations = 1 << 60
	cfg.GranularK = 15
	if err := cfg.validate(in, Sequential); err != nil {
		t.Fatal(err)
	}
	s := newSearcher(in, &cfg, rng.New(1), 0, 0, 0)
	p := &stubProc{}
	s.init(p)
	// A few full iterations warm the reusable buffers and the tabu list.
	for i := 0; i < 3; i++ {
		s.generate(p, cfg.NeighborhoodSize)
		s.stepSweep(p)
	}
	if avg := testing.AllocsPerRun(20, func() {
		s.generate(p, cfg.NeighborhoodSize)
	}); avg != 0 {
		t.Errorf("generate allocates %.1f objects per sweep, want 0", avg)
	}
}
