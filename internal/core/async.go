package core

import (
	"fmt"
	"slices"

	"repro/internal/deme"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// asyncMaster runs the asynchronous master–worker variant (§III.D): the
// master hands chunks to idle workers, computes a chunk of its own, and
// then — instead of waiting for everyone — consults the decision function
// of Algorithm 2 to decide when to proceed with whatever part of the
// neighborhood has been evaluated so far. Late results join a later
// iteration's candidate set, so the considered set can mix neighbors of
// several past current solutions (the paper's Figure 1).
//
// Self-healing: silent workers are treated as idle rather than waited on.
// A worker that crashed (Proc.Alive false) is evicted immediately; one
// that stays busy past Config.RecvTimeout collects a strike per dispatch
// and is evicted after Config.EvictAfter strikes. Evictions rebalance the
// chunk size over the remaining workers, and an evicted worker that later
// delivers a result is re-admitted. With every worker gone the master
// degrades to a sequential searcher that no longer waits at all.
//
// When peers is non-empty the master additionally behaves like a
// collaborative searcher toward those processes (the paper's future-work
// combination): improving solutions are sent to one peer chosen by a
// rotating communication list, and solutions received from peers are merged
// into M_nondom.
func asyncMaster(p deme.Proc, in *vrptw.Instance, cfg *Config, r *rng.Rand, workers, peers []int, rec *Trajectory) procOutcome {
	// On a resume the checkpoint was taken at a quiesced barrier: every
	// worker idle, no results in flight — exactly the state the worker
	// bookkeeping below initializes to. Pending candidates and the ring
	// come from the checkpoint part.
	s := startSearcher(p, in, cfg, r, rec, &shareRing{peers: peers})
	tel := cfg.Telemetry

	initial := append([]int(nil), workers...)
	workers = append([]int(nil), workers...)
	var chunk int
	rebalance := func() {
		chunk = max(1, s.neighborhood/(len(workers)+1))
	}
	rebalance()
	idle := make([]bool, p.P())
	sentAt := make([]float64, p.P())
	struck := make([]bool, p.P()) // this dispatch already collected its strike
	strikes := make([]int, p.P())
	for _, w := range workers {
		idle[w] = true
	}
	// reap drops dead workers immediately and strikes (and eventually
	// evicts) busy ones whose reply is overdue, so the decision function
	// never keeps waiting on a silent worker.
	reap := func() {
		changed := false
		kept := workers[:0]
		for _, w := range workers {
			if !p.Alive(w) {
				tel.Inc(telemetry.WorkerEvictions)
				idle[w] = false
				changed = true
				continue
			}
			if !idle[w] && p.Now()-sentAt[w] > cfg.RecvTimeout {
				if !struck[w] {
					struck[w] = true
					strikes[w]++
					tel.Inc(telemetry.RecvTimeouts)
				}
				if strikes[w] >= cfg.EvictAfter {
					tel.Inc(telemetry.WorkerEvictions)
					idle[w] = false
					changed = true
					continue
				}
			}
			kept = append(kept, w)
		}
		workers = kept
		if changed {
			rebalance()
		}
	}

	var protoErr error

	// handle folds one message into the master state.
	handle := func(m deme.Message) error {
		switch m.Tag {
		case tagResult:
			rm, ok := m.Data.(resultMsg)
			if !ok {
				tel.Inc(telemetry.MalformedMsgs)
				return fmt.Errorf("worker %d sent a malformed result payload %T", m.From, m.Data)
			}
			s.pending = append(s.pending, rm.cands...)
			s.evals += len(rm.cands)
			tel.Add(telemetry.Evaluations, len(rm.cands))
			strikes[m.From], struck[m.From] = 0, false
			if slices.Contains(workers, m.From) {
				idle[m.From] = true
			} else if slices.Contains(initial, m.From) && p.Alive(m.From) {
				// An evicted worker came back (e.g. its stall ended):
				// re-admit it.
				tel.Inc(telemetry.WorkerRevivals)
				workers = append(workers, m.From)
				idle[m.From] = true
				rebalance()
			}
		case tagShare:
			return s.foldShare(p, m)
		}
		return nil
	}

	for !s.done(p) && protoErr == nil {
		reap()
		if len(workers) < len(initial) {
			tel.Inc(telemetry.DegradedIters)
		}
		// Dispatch new work to every idle worker.
		for _, w := range workers {
			if idle[w] {
				p.Send(w, tagWork, workMsg{cur: s.cur, count: chunk, iter: s.iter}, solBytes(in))
				idle[w] = false
				sentAt[w] = p.Now()
				struck[w] = false
			}
		}
		// The master's own share of the neighborhood.
		s.generate(p, chunk)
		s.pending = wrapCands(s.pending, s.cur, s.iter, s.buf.Data, s.buf.Objs)

		// Decision function (Algorithm 2): stop waiting when a worker
		// is idle (c1), a collected candidate dominates the current
		// solution (c2), we waited too long (c3), or the evaluation
		// budget is exhausted (c4). The conditions are (re)evaluated
		// once per poll cycle — the master first collects everything
		// arriving within one quantum, mirroring the framework's
		// periodic message polling; this is what lets the bunched
		// worker replies of one round join the same iteration instead
		// of straggling into the next. A master with no workers left
		// skips the wait entirely (c1: everyone is trivially idle).
		waitStart := p.Now()
		deadline := waitStart + cfg.WaitTimeout
		poll := cfg.WaitTimeout / 3
		collectQuantum := func() {
			tick := p.Now() + poll
			for p.Now() < tick && protoErr == nil {
				m, ok := p.RecvTimeout(tick - p.Now())
				if !ok {
					return
				}
				protoErr = handle(m)
			}
		}
		fired := telemetry.FireTimeout // c3 unless another condition breaks first
		if len(workers) > 0 {
			collectQuantum()
		}
		for protoErr == nil {
			for {
				m, ok := p.TryRecv()
				if !ok {
					break
				}
				if protoErr = handle(m); protoErr != nil {
					break
				}
			}
			if protoErr != nil {
				break
			}
			reap()
			c1 := len(workers) == 0 // nothing left to wait on
			for _, w := range workers {
				if idle[w] {
					c1 = true
					break
				}
			}
			c2 := false
			for i := range s.pending {
				if s.pending[i].obj.Dominates(s.cur.Obj) {
					c2 = true
					break
				}
			}
			c4 := s.done(p)
			if c1 || c2 || c4 {
				switch {
				case c1:
					fired = telemetry.FireIdleWorker
				case c2:
					fired = telemetry.FireDominating
				default:
					fired = telemetry.FireBudget
				}
				break
			}
			if deadline-p.Now() <= 0 {
				break // c3: waited too long
			}
			collectQuantum()
		}
		if protoErr != nil {
			break
		}
		if tel != nil {
			late := 0
			for i := range s.pending {
				if s.pending[i].born < s.iter {
					late++
				}
			}
			tel.Inc(fired.Counter())
			tel.Add(telemetry.LateCandidates, late)
			tel.Async.PartialSizes.Observe(int64(len(s.pending)))
			tel.Async.WaitSeconds.ObserveSeconds(p.Now() - waitStart)
			if tel.Sinks() {
				tel.Event(telemetry.DecisionEvent{Proc: p.ID(), Iteration: s.iter, Reason: fired,
					Pending: len(s.pending), Late: late, WaitSeconds: p.Now() - waitStart})
			}
		}

		improved := s.stepCands(p, s.pending)
		s.pending = s.pending[:0]
		s.share(p, improved)

		if cfg.checkpointDue(s.iter) && !s.done(p) {
			sp := s.barrierSpan(p)
			// Checkpoint barrier. First quiesce: wait for every remaining
			// worker to go idle, folding stragglers' results into pending
			// — they join the next iteration's candidate set, exactly as
			// in the uninterrupted checkpointing trajectory. Then run the
			// barrier against a system with nothing in flight.
			quiesced := true
			misses := 0
			for protoErr == nil {
				reap()
				busy := false
				for _, w := range workers {
					if !idle[w] {
						busy = true
						break
					}
				}
				if !busy {
					break
				}
				m, ok := p.RecvTimeout(cfg.RecvTimeout)
				if !ok {
					misses++
					if misses >= cfg.EvictAfter {
						quiesced = false // persistently silent worker
						break
					}
					continue
				}
				protoErr = handle(m)
			}
			if protoErr != nil {
				sp.End()
				break
			}
			if s.ckptBarrier(p, sp, workers, quiesced) {
				break
			}
		}
	}
	stopWorkers(p, initial)
	if protoErr != nil {
		return s.failOutcome(protoErr)
	}
	return s.outcome()
}
