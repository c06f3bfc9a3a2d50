package core

import (
	"fmt"

	"repro/internal/deme"
	"repro/internal/operators"
	"repro/internal/pareto"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// span is one outstanding work chunk: the index range [lo, hi) of the
// iteration's move list dispatched to worker w. Kept in a slice (not a
// map) so the recovery path iterates in a deterministic order.
type span struct{ w, lo, hi int }

// syncMaster runs the synchronous master–worker variant (§III.C): each
// iteration the master proposes the whole neighborhood from its own random
// stream — so the search trajectory is exactly the sequential one — ships
// index-aligned move spans to the workers for delta evaluation, evaluates
// its own span, and reassembles the objectives before selecting.
//
// The master self-heals: every receive carries Config.RecvTimeout, an
// expired deadline re-evaluates the outstanding spans locally (the result
// is bit-identical to the lost reply, so faults never change the
// trajectory), persistently silent workers are evicted after
// Config.EvictAfter strikes, crashed workers immediately, and with no
// workers left the master degrades to the plain sequential searcher.
func syncMaster(p deme.Proc, in *vrptw.Instance, cfg *Config, r *rng.Rand, rec *Trajectory) procOutcome {
	s := startSearcher(p, in, cfg, r, rec, nil)
	tel := cfg.Telemetry

	workers := procRange(1, p.P())
	alive := append([]int(nil), workers...)
	strikes := make([]int, p.P())
	evict := func(w int) {
		for i, a := range alive {
			if a == w {
				alive = append(alive[:i], alive[i+1:]...)
				tel.Inc(telemetry.WorkerEvictions)
				return
			}
		}
	}

	var outstanding []span
	for !s.done(p) {
		// Reap workers that crashed or exited since the last iteration.
		kept := alive[:0]
		for _, w := range alive {
			if p.Alive(w) {
				kept = append(kept, w)
			} else {
				tel.Inc(telemetry.WorkerEvictions)
			}
		}
		alive = kept
		if len(alive) < p.P()-1 {
			tel.Inc(telemetry.DegradedIters)
		}

		s.gen.MovesInto(&s.buf, s.cur, s.r, s.neighborhood)
		data := s.buf.Data
		n := len(data)
		if cap(s.buf.Objs) < n {
			s.buf.Objs = make([]solution.Objectives, n)
		}
		objs := s.buf.Objs[:n]
		s.buf.Objs = objs

		// Even spans per worker; the master absorbs the remainder (all of
		// it once every worker is gone — the sequential degradation).
		// Dispatched spans are copied out of the reusable buffer: a
		// stalled worker may still be reading its span when the master has
		// recovered it locally, moved on, and overwritten the buffer.
		per := n / (len(alive) + 1)
		outstanding = outstanding[:0]
		lo := 0
		if per > 0 {
			for _, w := range alive {
				hi := lo + per
				sendSpan := append([]operators.MoveData(nil), data[lo:hi]...)
				p.Send(w, tagWork, workMsg{cur: s.cur, data: sendSpan, lo: lo, iter: s.iter}, solBytes(in))
				outstanding = append(outstanding, span{w: w, lo: lo, hi: hi})
				lo = hi
			}
		}
		evalSpan(p, cfg, in, s.gen, s.cur, data[lo:], objs[lo:])

		for len(outstanding) > 0 {
			m, ok := p.RecvTimeout(cfg.RecvTimeout)
			if !ok {
				// Deadline expired (or the system drained): strike every
				// outstanding worker and recover its span locally.
				tel.Inc(telemetry.RecvTimeouts)
				for _, sp := range outstanding {
					strikes[sp.w]++
					tel.Inc(telemetry.Redispatches)
					evalSpan(p, cfg, in, s.gen, s.cur, data[sp.lo:sp.hi], objs[sp.lo:sp.hi])
					if strikes[sp.w] >= cfg.EvictAfter || !p.Alive(sp.w) {
						evict(sp.w)
					}
				}
				outstanding = outstanding[:0]
				break
			}
			if m.Tag != tagResult {
				continue // stray share traffic is not for a sync master
			}
			rm, okPayload := m.Data.(resultMsg)
			if !okPayload {
				tel.Inc(telemetry.MalformedMsgs)
				stopWorkers(p, workers)
				return s.failOutcome(fmt.Errorf("worker %d sent a malformed result payload %T", m.From, m.Data))
			}
			idx := -1
			for i, sp := range outstanding {
				if sp.w == m.From && sp.lo == rm.lo && rm.iter == s.iter {
					idx = i
					break
				}
			}
			if idx < 0 {
				// A duplicate, or a late reply to a chunk already
				// recovered locally or belonging to a past iteration.
				tel.Inc(telemetry.StaleResults)
				continue
			}
			sp := outstanding[idx]
			if len(rm.objs) != sp.hi-sp.lo {
				tel.Inc(telemetry.MalformedMsgs)
				stopWorkers(p, workers)
				return s.failOutcome(fmt.Errorf("worker %d returned %d objectives for a %d-move span",
					m.From, len(rm.objs), sp.hi-sp.lo))
			}
			copy(objs[sp.lo:sp.hi], rm.objs)
			strikes[sp.w] = 0
			outstanding = append(outstanding[:idx], outstanding[idx+1:]...)
		}

		s.countEvals(n)
		s.buf.Front = pareto.Front(s.buf.Front, objs)
		s.share(p, s.stepSweep(p))
		// Workers are idle between iterations, so the barrier fits between
		// the result collection and the next dispatch.
		if cfg.checkpointDue(s.iter) && !s.done(p) && s.ckptBarrier(p, s.barrierSpan(p), alive, true) {
			break
		}
	}
	stopWorkers(p, workers)
	return s.outcome()
}

// stopWorkers tells every originally-assigned worker to terminate. Evicted
// or crashed workers are included: mail to a finished process is silently
// never delivered, and a stalled-but-alive one needs the stop to exit.
func stopWorkers(p deme.Proc, workers []int) {
	for _, w := range workers {
		p.Send(w, tagStop, nil, 0)
	}
}
