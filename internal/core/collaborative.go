package core

import (
	"fmt"

	"repro/internal/deme"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// collaborativeBody runs one process of the multisearch variant (§III.E):
// a full sequential TSMO whose parameters — except on process 0 — are
// disturbed by N(0, param/4). After an initial phase (which ends the first
// time the archive stagnates for RestartIterations iterations), every
// improving solution is sent to exactly one other process, chosen by a
// rotating communication list initialized to a random order; received
// solutions are merged into the medium-term memory M_nondom.
//
// Self-healing: peers whose process is gone — crashed, or simply finished
// earlier — are dropped from the communication list before each share, so
// a searcher never keeps addressing the dead. Receiving is non-blocking
// (TryRecv), so a dead peer can never deadlock a searcher.
//
// Checkpointing uses a two-phase barrier coordinated by process 0 (see
// collabBarrier): on tagCkptReq a searcher acks and pauses — folding
// shares, sending nothing — until tagCkptGo, then captures its part and
// acks again. A searcher that finishes its budget writes a final (Done)
// part so later barriers of still-running peers stay complete; a resumed
// Done searcher re-deposits that part and exits immediately.
func collaborativeBody(p deme.Proc, in *vrptw.Instance, cfg *Config, r *rng.Rand, rec *Trajectory) procOutcome {
	nbh, tenure, restart := cfg.NeighborhoodSize, cfg.TabuTenure, cfg.RestartIterations
	rp := cfg.resumePart(p.ID())
	if p.ID() > 0 {
		if rp != nil {
			// Restore the perturbed parameters instead of re-perturbing,
			// which would consume RNG draws the restored stream already
			// spent.
			nbh, tenure, restart = rp.Neighborhood, rp.Tenure, rp.RestartIters
		} else {
			nbh = perturb(r, nbh)
			tenure = perturb(r, tenure)
			restart = perturb(r, restart)
		}
	}
	s := newSearcher(in, cfg, r, nbh, tenure, restart)
	s.rec = rec
	s.sampleOn = p.ID() == 0
	s.shareOn = cfg.Share != nil && p.ID() == 0
	tel := cfg.Telemetry

	commList := make([]int, 0, p.P()-1)
	initialPhase := true
	shares := 0
	if rp != nil {
		s.restoreFrom(rp)
		if rp.Done {
			// This searcher had already finished when the checkpoint was
			// taken; its part is final. Re-deposit it for the resumed
			// run's barriers and replay the exit.
			cfg.coll.put(p.ID(), rp)
			return s.outcome(rp.Shares)
		}
		commList = append(commList, rp.CommList...)
		initialPhase = rp.InitialPhase
		shares = rp.Shares
	} else {
		// Construct before shuffling the communication list: both draw
		// from r, and the stream order is observable (bit-identity with
		// pre-checkpointing runs).
		s.init(p)
		for id := 0; id < p.P(); id++ {
			if id != p.ID() {
				commList = append(commList, id)
			}
		}
		r.Shuffle(len(commList), func(i, j int) { commList[i], commList[j] = commList[j], commList[i] })
	}

	// foldShare merges one shared solution into M_nondom; barrier control
	// traffic and other strays are ignored.
	foldShare := func(m deme.Message) error {
		if m.Tag != tagShare {
			return nil
		}
		sol, okPayload := m.Data.(*solution.Solution)
		if !okPayload {
			tel.Inc(telemetry.MalformedMsgs)
			return fmt.Errorf("peer %d sent a malformed share payload %T", m.From, m.Data)
		}
		// Deserializing a foreign solution and checking it against the
		// 50-entry M_nondom costs several times a plain neighbor update.
		p.Compute(shareHandlingFactor * cfg.Cost.OverheadPerNeighbor)
		tel.Inc(shareOutcome(s.nondom.Add(sol)))
		return nil
	}

	// capturePart snapshots this searcher plus its sharing state.
	capturePart := func(barrier int) *SearcherState {
		st := s.capture(p, barrier, false)
		st.CommList = append([]int(nil), commList...)
		st.InitialPhase = initialPhase
		st.Shares = shares
		return st
	}

	// pause services one barrier as a follower: ack the request, block —
	// folding shares, sending nothing — until process 0 releases the
	// barrier, then capture and ack a second time. Shares folded here
	// were sent before their sender saw the request, so they land on the
	// pre-capture side of the cut on both ends. The returned flag is the
	// go message's halt marker: a mutation epoch, after which this body
	// must exit on the part it just captured.
	pause := func(barrier int) (bool, error) {
		p.Send(0, tagCkptAck, ckptMsg{barrier: barrier}, 0)
		for {
			m, ok := p.RecvTimeout(cfg.RecvTimeout)
			if !ok {
				if cfg.cancelled() || !p.Alive(0) {
					return false, nil // coordinator gone: abandon the barrier
				}
				continue
			}
			switch m.Tag {
			case tagCkptGo:
				halt := false
				if cm, okPayload := m.Data.(ckptMsg); okPayload {
					halt = cm.halt
				}
				if _, isSim := p.(deme.Snapshotter); isSim {
					// Simulator: ack first so the captured clock includes
					// the send overhead; the deposit is visible before
					// the next yield.
					p.Send(0, tagCkptAck, ckptMsg{barrier: barrier}, 0)
					cfg.coll.put(p.ID(), capturePart(barrier))
				} else {
					// Real concurrency: deposit before acking so the
					// coordinator's assembly observes the part.
					cfg.coll.put(p.ID(), capturePart(barrier))
					p.Send(0, tagCkptAck, ckptMsg{barrier: barrier}, 0)
				}
				return halt, nil
			case tagCkptReq:
				// The coordinator abandoned the previous barrier and
				// opened the next one; answer the fresh request.
				if cm, okPayload := m.Data.(ckptMsg); okPayload {
					barrier = cm.barrier
				}
				p.Send(0, tagCkptAck, ckptMsg{barrier: barrier}, 0)
			default:
				if err := foldShare(m); err != nil {
					return false, err
				}
			}
		}
	}

	halted := false
	for !s.done(p) && !halted {
		// Fold in solutions shared by the other searchers.
		for {
			m, ok := p.TryRecv()
			if !ok {
				break
			}
			if m.Tag == tagCkptReq && p.ID() > 0 {
				cm, okPayload := m.Data.(ckptMsg)
				if !okPayload {
					tel.Inc(telemetry.MalformedMsgs)
					continue
				}
				h, err := pause(cm.barrier)
				if err != nil {
					return s.failOutcome(err)
				}
				if h {
					halted = true
				}
				continue
			}
			if err := foldShare(m); err != nil {
				return s.failOutcome(err)
			}
		}
		if halted {
			// Mutation epoch: exit on the part captured inside pause; the
			// coordinator is halting too.
			break
		}

		cands := s.generate(p, s.neighborhood)
		if len(cands) == 0 {
			s.evals++
		}
		improved := s.step(p, cands)

		if initialPhase && s.noImprovement {
			initialPhase = false
		}
		if !initialPhase && improved && len(commList) > 0 {
			sp := s.tr.Start(s.phase, "share").SetInt("proc", int64(p.ID()))
			dropDeadPeers(p, &commList, tel)
			if len(commList) > 0 {
				shares += sendShare(p, in, cfg, s.cur, &commList)
			}
			sp.End()
		}

		if cfg.shareDue(s.iter) && s.shareOn && !s.done(p) {
			// Only searcher 0 bridges to the cluster: solutions it folds
			// here reach the other local searchers through the regular
			// in-process ring. Peers keep searching during the gather —
			// their shares queue in virtual time, exactly as during a
			// checkpoint barrier's assembly.
			s.exchange(p)
		}

		if p.ID() == 0 && cfg.checkpointDue(s.iter) && !s.done(p) {
			b := s.iter / cfg.CheckpointEvery
			halt := cfg.haltDue(b)
			ckptSpan := s.tr.Start(s.phase, "ckpt_barrier").SetInt("barrier", int64(b))
			completed, err := collabBarrier(p, cfg, b, halt, foldShare, func() {
				cfg.coll.put(p.ID(), capturePart(b))
			})
			ckptSpan.End()
			if err != nil {
				return s.failOutcome(err)
			}
			if halt && completed {
				// Mutation epoch: every peer halted on the go message;
				// exit on the barrier's parts. A skipped barrier retries
				// at the next one.
				cfg.markHalt(b)
				halted = true
			}
		}
	}
	if cfg.checkpointing() && !halted {
		// Final part: barriers of still-running peers need this
		// searcher's state even after its body returns. Written before
		// the return, so Alive(id) == false implies the part is present.
		st := capturePart(0)
		st.Done = true
		cfg.coll.put(p.ID(), st)
	}
	return s.outcome(shares + s.xshares)
}

// sendShare delivers an improving solution to the peers: to the head of
// the rotating communication list (the paper's scheme), or to everyone
// when the ShareBroadcast ablation is on. It returns the number of
// messages sent.
func sendShare(p deme.Proc, in *vrptw.Instance, cfg *Config, sol *solution.Solution, commList *[]int) int {
	if cfg.ShareBroadcast {
		for _, peer := range *commList {
			p.Send(peer, tagShare, sol, solBytes(in))
		}
		cfg.Telemetry.Add(telemetry.SharesSent, len(*commList))
		return len(*commList)
	}
	peer := (*commList)[0]
	*commList = append((*commList)[1:], peer)
	p.Send(peer, tagShare, sol, solBytes(in))
	cfg.Telemetry.Inc(telemetry.SharesSent)
	return 1
}
