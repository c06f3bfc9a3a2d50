package core

import (
	"repro/internal/deme"
	"repro/internal/operators"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// workerLoop services work requests from a master until it receives a stop
// message, the system drains, or the master dies. Two request shapes are
// served: the asynchronous master sends a count and the worker proposes
// and delta-evaluates its own neighbors (sending full candidates back);
// the synchronous master ships the move span it proposed itself and the
// worker only delta-evaluates it (sending an index-aligned objectives
// span back). Received solutions are immutable and every worker builds its
// own schedule cache, so nothing mutable crosses the goroutine boundary.
//
// Receives are bounded by Config.RecvTimeout so an orphaned worker — its
// master crashed before sending tagStop — notices via Proc.Alive and exits
// instead of blocking forever.
//
// Under checkpointing the worker re-seeds its RNG per asynchronous chunk
// from (seed, master iteration), so it carries no RNG state across chunks:
// a checkpoint needs only the worker's runtime snapshot, and a resumed
// worker reproduces every chunk's candidate stream exactly. tagCkpt asks
// the worker to deposit that snapshot into the run's collector and ack.
func workerLoop(p deme.Proc, in *vrptw.Instance, cfg *Config, r *rng.Rand, seed uint64, master int) {
	gen := newGenerator(in, cfg)
	tel := cfg.Telemetry
	var buf operators.CandidateBuffer
	for {
		if cfg.cancelled() {
			return // the run was cancelled; the master is unwinding too
		}
		idleStart := p.Now()
		m, ok := p.RecvTimeout(cfg.RecvTimeout)
		if !ok {
			if !p.Alive(master) {
				return // orphaned: the master is gone, no stop will come
			}
			continue // plain timeout (or drained system with a live master)
		}
		if m.Tag == tagStop {
			return
		}
		if m.Tag == tagCkpt {
			cm, okPayload := m.Data.(ckptMsg)
			if !okPayload {
				tel.Inc(telemetry.MalformedMsgs)
				continue
			}
			depositPart(p, cfg, m.From, &SearcherState{ID: p.ID(), Barrier: cm.barrier, Worker: true})
			continue
		}
		if m.Tag != tagWork {
			continue // stray share/result messages are not for workers
		}
		busyStart := p.Now()
		w, okPayload := m.Data.(workMsg)
		if !okPayload {
			tel.Inc(telemetry.MalformedMsgs)
			continue // the master guards its own payloads; drop garbage here
		}
		// Reply slices are freshly allocated: they cross the goroutine
		// boundary.
		var res resultMsg
		if w.data != nil {
			// Synchronous span: evaluate exactly the shipped moves.
			res = resultMsg{objs: make([]solution.Objectives, len(w.data)), lo: w.lo, iter: w.iter}
			evalSpan(p, cfg, in, gen, w.cur, w.data, res.objs)
		} else {
			if cfg.checkpointing() {
				r.Seed(chunkSeed(seed, w.iter))
			}
			sp := cfg.tracer.Start(cfg.span, "eval_shard").
				SetInt("proc", int64(p.ID())).
				SetInt("moves", int64(w.count))
			gen.CandidatesInto(&buf, w.cur, r, w.count)
			res.cands = wrapCands(make([]cand, 0, len(buf.Data)), w.cur, w.iter, buf.Data, buf.Objs)
			cfg.Cost.charge(p, in, buf.Objs)
			sp.End()
		}
		n := len(res.objs) + len(res.cands)
		p.Send(master, tagResult, res, n*solBytes(in))
		countChunk(tel, n, busyStart-idleStart, p.Now()-busyStart)
	}
}

// countChunk records one served work chunk of n candidates together with
// the idle time that preceded it and the busy time it took.
func countChunk(tel *telemetry.Telemetry, n int, idle, busy float64) {
	tel.Inc(telemetry.WorkerChunks)
	tel.Add(telemetry.WorkerCandidates, n)
	tel.AddFloat(telemetry.WorkerIdleSeconds, idle)
	tel.AddFloat(telemetry.WorkerBusySeconds, busy)
}
