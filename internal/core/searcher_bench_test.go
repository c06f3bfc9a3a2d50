package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// benchGranularK is the granular-list size of the iteration benchmarks;
// the same value the quality-parity experiment in EXPERIMENTS.md uses.
const benchGranularK = 20

// benchSearcherCfg builds a searcher on a 400-customer instance with the
// paper's neighborhood size and an effectively unlimited budget. tel is
// nil for the baseline (disabled telemetry) benchmarks; granularK
// configures the candidate engine (0: full neighborhoods).
func benchSearcherCfg(b *testing.B, tel *telemetry.Telemetry, granularK int) (*searcher, *stubProc, int) {
	b.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxEvaluations = 1 << 60
	cfg.Telemetry = tel
	cfg.GranularK = granularK
	if err := cfg.validate(in, Sequential); err != nil {
		b.Fatal(err)
	}
	s := newSearcher(in, &cfg, rng.New(1), 0, 0, 0)
	p := &stubProc{}
	s.init(p)
	return s, p, cfg.NeighborhoodSize
}

// benchSearcher is benchSearcherCfg with the default engine (full
// neighborhoods).
func benchSearcher(b *testing.B, tel *telemetry.Telemetry) (*searcher, *stubProc, int) {
	b.Helper()
	return benchSearcherCfg(b, tel, 0)
}

// BenchmarkSearcherIteration measures one full generate+step iteration of
// the granular candidate engine — the ROADMAP's hot-path target
// (<=150µs/op, <=10 allocs/op on 400 customers): granular proposals from
// the sparse k-nearest graph, flat moves in reusable buffers, the sweep's
// non-dominated front folded where its moves are evaluated, objectives-
// only candidates for that front alone, and lazy materialization of just
// the selected solution and the memory-bound entries.
func BenchmarkSearcherIteration(b *testing.B) {
	s, p, size := benchSearcherCfg(b, nil, benchGranularK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.generate(p, size)
		s.stepSweep(p)
	}
}

// BenchmarkSearcherIterationFull is the same iteration with the paper's
// full neighborhoods (no granular lists) — the before side of the granular
// comparison.
func BenchmarkSearcherIterationFull(b *testing.B) {
	s, p, size := benchSearcher(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.generate(p, size)
		s.stepSweep(p)
	}
}

// BenchmarkSearcherIterationTelemetry is the granular iteration with every
// instrument recording; against BenchmarkSearcherIteration it isolates the
// enabled-telemetry cost in the kernel (end to end, scripts/tsmobench
// reports it as telemetry.overhead_pct).
func BenchmarkSearcherIterationTelemetry(b *testing.B) {
	s, p, size := benchSearcherCfg(b, telemetry.New(nil, nil), benchGranularK)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.generate(p, size)
		s.stepSweep(p)
	}
}

// BenchmarkSearcherIterationTrace is the granular iteration with an
// enabled span recorder: the searcher batches iterations into "sweep"
// spans, so the pair against BenchmarkSearcherIteration isolates the
// enabled-tracing cost (<=3% budget; end to end, scripts/tsmobench
// reports it as trace.overhead_pct).
func BenchmarkSearcherIterationTrace(b *testing.B) {
	s, p, size := benchSearcherCfg(b, nil, benchGranularK)
	tr := trace.New(0)
	s.tr = tr
	s.phase = tr.Start(nil, "run")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.generate(p, size)
		s.stepSweep(p)
	}
}

// TestStepMaterializesLazily asserts the lazy-materialization contract: a
// step over a full neighborhood must apply only a small fraction of the
// neighborhood's moves (the selected one plus memory-accepted
// non-dominated entries, all among the front's candidates), not all of
// them.
func TestStepMaterializesLazily(t *testing.T) {
	in := testInstance(t, 60)
	cfg := smallConfig()
	if err := cfg.validate(in, Sequential); err != nil {
		t.Fatal(err)
	}
	s := newSearcher(in, &cfg, rng.New(3), 0, 0, 0)
	p := &stubProc{}
	s.init(p)
	total, applied := 0, 0
	for iter := 0; iter < 10; iter++ {
		s.generate(p, cfg.NeighborhoodSize)
		s.stepSweep(p)
		total += len(s.buf.Data)
		for i := range s.cands {
			if s.cands[i].sol != nil {
				applied++
			}
		}
	}
	if total == 0 {
		t.Fatal("no candidates generated")
	}
	if applied*2 >= total {
		t.Fatalf("step materialized %d of %d candidates; expected a small fraction", applied, total)
	}
}
