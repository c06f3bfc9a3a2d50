package core

import (
	"repro/internal/deme"
	"repro/internal/rng"
	"repro/internal/vrptw"
)

// sequentialBody is the paper's Algorithm 1 on a single process: generate a
// neighborhood of the current solution, evaluate it, select, restart from
// the memories when stuck, and update the memories — until the evaluation
// budget is exhausted.
func sequentialBody(p deme.Proc, in *vrptw.Instance, cfg *Config, r *rng.Rand, rec *Trajectory) procOutcome {
	s := startSearcher(p, in, cfg, r, rec, nil)
	for !s.done(p) {
		s.generate(p, s.neighborhood)
		s.share(p, s.stepSweep(p))
		if cfg.checkpointDue(s.iter) && !s.done(p) && s.ckptBarrier(p, s.barrierSpan(p), nil, true) {
			break
		}
	}
	return s.outcome()
}
