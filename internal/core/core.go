// Package core implements the paper's contribution: the multiobjective
// Tabu Search TSMO for the soft-time-window CVRPTW (Algorithm 1) and its
// three parallelizations — synchronous master–worker, asynchronous
// master–worker with the decision function of Algorithm 2, and
// collaborative multisearch — plus the combined variant sketched as future
// work. All variants are written against the deme.Proc interface and run
// on either the deterministic machine simulator (deme.NewSim) or real
// goroutines (deme.NewGoroutine).
//
// The usual entry point is Run:
//
//	in, _ := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
//	cfg := core.DefaultConfig()
//	cfg.Processors = 6
//	res, err := core.Run(core.Asynchronous, in, cfg, deme.NewSim(deme.Origin3800()))
package core

import (
	"context"
	"fmt"

	"repro/internal/deme"
	"repro/internal/operators"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// shareHandlingFactor scales OverheadPerNeighbor for incorporating a
// solution shared by another searcher (deserialization plus dominance
// checks against the medium-term memory).
const shareHandlingFactor = 8

// Message tags used between processes.
const (
	tagWork    = iota + 1 // master -> worker: workMsg
	tagResult             // worker -> master: resultMsg
	tagStop               // master -> worker: terminate
	tagShare              // searcher -> searcher: *solution.Solution
	tagCkpt               // master -> worker: capture your part, then ack (ckptMsg)
	tagCkptAck            // worker/peer -> coordinator: part captured (ckptMsg)
	tagCkptReq            // collaborative proc 0 -> peer: barrier request (ckptMsg)
	tagCkptGo             // collaborative proc 0 -> peer: all peers paused, capture now (ckptMsg)
)

// workMsg carries one chunk of neighborhood work. The asynchronous master
// sends only the current solution and a count (workers propose their own
// moves); the synchronous master additionally ships the move slice it
// proposed itself — keeping its random stream identical to the sequential
// searcher's — for the worker to delta-evaluate.
type workMsg struct {
	cur   *solution.Solution
	count int
	iter  int
	data  []operators.MoveData // non-nil: evaluate exactly these (synchronous)
	lo    int                  // offset of data in the master's neighborhood
}

// resultMsg carries a chunk of evaluated work back to the master: full
// candidates for the asynchronous variant, objectives-only spans (aligned
// with the shipped move span) for the synchronous one.
type resultMsg struct {
	cands []cand
	objs  []solution.Objectives // synchronous reply: objs[i] belongs to data[lo+i]
	lo    int
	iter  int
}

// Run executes the selected TSMO variant on the instance with the given
// configuration and runtime backend, and returns the merged result.
func Run(alg Algorithm, in *vrptw.Instance, cfg Config, rt deme.Runtime) (*Result, error) {
	return RunContext(context.Background(), alg, in, cfg, rt)
}

// RunContext is Run with cooperative cancellation: when ctx is cancelled,
// every searcher and worker stops within one iteration and the merged
// result over the work done so far is returned — with a nil error, so
// interrupted runs still yield their partial front. Callers distinguish a
// cancelled run by checking ctx.Err() themselves. A deadline on ctx
// bounds the run in wall time regardless of backend.
func RunContext(ctx context.Context, alg Algorithm, in *vrptw.Instance, cfg Config, rt deme.Runtime) (*Result, error) {
	if err := cfg.validate(in, alg); err != nil {
		return nil, err
	}
	cfg.ctx = ctx
	cfg.alg = alg
	// The run's processes count against the CPUs a sweep may take a helper
	// goroutine from, so a run only overlaps evaluation with proposal on a
	// CPU no search process of this OS process would use.
	operators.AddSearchProcs(cfg.Processors)
	defer operators.AddSearchProcs(-cfg.Processors)
	// When the context carries a span recorder (the solver service threads
	// one per job), the whole run becomes a "run" span and every phase span
	// below — construction, sweep batches, checkpoint barriers, share
	// rounds, delta-eval shards — parents directly to it, so ring overflow
	// can only ever drop leaves, never the root of the tree.
	tr, parentSpan := trace.FromContext(ctx)
	runSpan := tr.Start(parentSpan, "run").
		SetAttr("algorithm", alg.String()).
		SetInt("processors", int64(cfg.Processors)).
		SetInt("seed", int64(cfg.Seed)).
		SetInt("max_evaluations", int64(cfg.MaxEvaluations))
	cfg.tracer, cfg.span = tr, runSpan
	ctx = trace.NewContext(ctx, tr, runSpan)
	defer runSpan.End()
	if cfg.checkpointing() {
		cfg.instDigest = instanceDigest(in)
		cfg.cfgDigest = configDigest(&cfg, alg)
		cfg.coll = newCkptCollector(cfg.Processors)
		if ck := cfg.resume; ck != nil {
			if err := ck.matches(alg, &cfg); err != nil {
				return nil, err
			}
			restoreRuntime(rt, ck, cfg.Processors)
		}
	}
	// Pre-derive one deterministic RNG seed per process so results do
	// not depend on scheduling.
	base := rng.New(cfg.Seed)
	seeds := make([]uint64, cfg.Processors)
	for i := range seeds {
		seeds[i] = base.Uint64()
	}

	outcomes := make([]procOutcome, cfg.Processors)
	trajs := make([]*Trajectory, cfg.Processors)

	body := func(p deme.Proc) {
		id := p.ID()
		r := rng.New(seeds[id])
		var rec *Trajectory
		if cfg.RecordTrajectory && id == 0 {
			rec = &Trajectory{Cap: 4 * cfg.MaxEvaluations}
			trajs[id] = rec
		}
		switch alg {
		case Sequential:
			outcomes[id] = sequentialBody(p, in, &cfg, r, rec)
		case Synchronous:
			if id == 0 {
				outcomes[id] = syncMaster(p, in, &cfg, r, rec)
			} else {
				workerLoop(p, in, &cfg, r, seeds[id], 0)
			}
		case Asynchronous:
			if id == 0 {
				workers := procRange(1, cfg.Processors)
				outcomes[id] = asyncMaster(p, in, &cfg, r, workers, nil, rec)
			} else {
				workerLoop(p, in, &cfg, r, seeds[id], 0)
			}
		case Collaborative:
			outcomes[id] = collaborativeBody(p, in, &cfg, r, rec)
		case Combined:
			masters, island := combinedLayout(cfg.Processors, cfg.Islands)
			m := island[id]
			if masters[m] == id {
				workers := islandWorkers(masters[m], masters, island, cfg.Processors)
				peers := others(masters, id)
				outcomes[id] = asyncMaster(p, in, &cfg, r, workers, peers, rec)
			} else {
				workerLoop(p, in, &cfg, r, seeds[id], masters[m])
			}
		}
	}
	// Segment loop: a run without a mutation source is one segment. With
	// one, every mutation epoch ends the segment at its checkpoint barrier;
	// the barrier's parts are assembled into a checkpoint, the source
	// splices the pending mutations (derived instance + repaired parts),
	// and the next segment warm-restarts through the ordinary resume path —
	// so a mutated run on the simulator replays bit-identically from
	// (seed, mutation log).
	for {
		cfg.haltB = 0
		// The whole backend execution, spawn to last body return, is one
		// "deme.run" span.
		dsp := tr.Start(runSpan, "deme.run").SetInt("procs", int64(cfg.Processors))
		err := rt.Run(ctx, cfg.Processors, body)
		dsp.End()
		if err != nil {
			return nil, fmt.Errorf("core: %v run failed: %w", alg, err)
		}
		for i := range outcomes {
			if outcomes[i].err != nil {
				return nil, fmt.Errorf("core: %v run failed on process %d: %w", alg, i, outcomes[i].err)
			}
		}
		hb := cfg.haltB
		if hb == 0 || cfg.cancelled() {
			break
		}
		parts := cfg.coll.assemble(hb)
		if parts == nil {
			return nil, fmt.Errorf("core: mutation barrier %d left incomplete parts", hb)
		}
		msp := tr.Start(runSpan, "mutation").SetInt("barrier", int64(hb))
		newIn, newCk, err := cfg.Dynamic.Apply(trace.NewContext(ctx, tr, msp), in, cfg.checkpoint(hb, parts))
		msp.End()
		if err != nil {
			return nil, fmt.Errorf("core: applying mutations at barrier %d: %w", hb, err)
		}
		wsp := tr.Start(runSpan, "warm_restart").SetInt("barrier", int64(hb))
		in = newIn
		cfg.instDigest = instanceDigest(in)
		if newCk.InstanceDigest != cfg.instDigest {
			wsp.End()
			return nil, fmt.Errorf("core: mutation source returned a checkpoint whose instance digest does not match the mutated instance")
		}
		if err := newCk.matches(alg, &cfg); err != nil {
			wsp.End()
			return nil, fmt.Errorf("core: mutated checkpoint does not resume this run: %w", err)
		}
		cfg.resume = newCk
		restoreRuntime(rt, newCk, cfg.Processors)
		cfg.Telemetry.Inc(telemetry.WarmRestarts)
		wsp.End()
	}

	fronts := make([][]*solution.Solution, len(outcomes))
	for i := range outcomes {
		fronts[i] = outcomes[i].front
	}
	res := &Result{
		Algorithm:  alg,
		Processors: cfg.Processors,
		Elapsed:    rt.Elapsed(),
		Front:      mergeFronts(fronts),
		Trajectory: trajs[0],
		Samples:    outcomes[0].samples,
	}
	for i := range outcomes {
		res.Evaluations += outcomes[i].evals
		res.Iterations += outcomes[i].iters
		res.Shares += outcomes[i].shares
	}
	return res, nil
}

// restoreRuntime hands a checkpoint's runtime-level snapshots to the
// backend (a no-op on backends without runtime state): the next segment's
// processes continue the modeled clocks, speed skews and jitter streams.
func restoreRuntime(rt deme.Runtime, ck *Checkpoint, procs int) {
	rs, ok := rt.(deme.Restorer)
	if !ok {
		return
	}
	snaps := make([]deme.ProcSnapshot, procs)
	for i, part := range ck.Parts {
		snaps[i] = part.Proc
	}
	rs.RestoreProcs(snaps)
}

// procRange returns the ids [lo, hi).
func procRange(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// combinedLayout partitions P processes into islands. It returns the
// master id of every island and a map from process id to island index.
// Islands are contiguous blocks; the last island absorbs the remainder.
func combinedLayout(p, islands int) (masters []int, island []int) {
	size := p / islands
	masters = make([]int, islands)
	island = make([]int, p)
	for k := 0; k < islands; k++ {
		masters[k] = k * size
	}
	for id := 0; id < p; id++ {
		k := id / size
		if k >= islands {
			k = islands - 1
		}
		island[id] = k
	}
	return masters, island
}

// islandWorkers lists the non-master members of the master's island.
func islandWorkers(master int, masters, island []int, p int) []int {
	var out []int
	for id := 0; id < p; id++ {
		if id != master && island[id] == island[master] {
			out = append(out, id)
		}
	}
	return out
}

// others lists the ids except self.
func others(ids []int, self int) []int {
	var out []int
	for _, id := range ids {
		if id != self {
			out = append(out, id)
		}
	}
	return out
}
