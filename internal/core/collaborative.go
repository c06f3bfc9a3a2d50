package core

import (
	"repro/internal/deme"
	"repro/internal/rng"
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
	s := startSearcher(p, in, cfg, r, rec, &shareRing{peers: others(procRange(0, p.P()), p.ID())})
	if rp := cfg.resumePart(p.ID()); rp != nil && rp.Done {
		// This searcher had already finished when the checkpoint was
		// taken; its part is final. Re-deposit it for the resumed run's
		// barriers and replay the exit.
		cfg.coll.put(p.ID(), rp)
		return s.outcome()
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
					cfg.Telemetry.Inc(telemetry.MalformedMsgs)
					continue
				}
				h, err := s.pause(p, cm.barrier)
				if err != nil {
					return s.failOutcome(err)
				}
				if h {
					halted = true
				}
				continue
			}
			if err := s.foldShare(p, m); err != nil {
				return s.failOutcome(err)
			}
		}
		if halted {
			// Mutation epoch: exit on the part captured inside pause; the
			// coordinator is halting too.
			break
		}

		s.generate(p, s.neighborhood)
		s.share(p, s.stepSweep(p))

		if p.ID() == 0 && cfg.checkpointDue(s.iter) && !s.done(p) {
			h, err := s.collabBarrier(p)
			if err != nil {
				return s.failOutcome(err)
			}
			halted = h
		}
	}
	if cfg.checkpointing() && !halted {
		// Final part: barriers of still-running peers need this
		// searcher's state even after its body returns. Written before
		// the return, so Alive(id) == false implies the part is present.
		cfg.coll.put(p.ID(), s.capture(p, 0, true))
	}
	return s.outcome()
}

// pause services one barrier as a follower: ack the request, block —
// folding shares, sending nothing — until process 0 releases the barrier,
// then capture and ack a second time. Shares folded here were sent before
// their sender saw the request, so they land on the pre-capture side of
// the cut on both ends. The returned flag is the go message's halt marker:
// a mutation epoch, after which the body must exit on the part it just
// captured.
func (s *searcher) pause(p deme.Proc, barrier int) (bool, error) {
	p.Send(0, tagCkptAck, ckptMsg{barrier: barrier}, 0)
	for {
		m, ok := p.RecvTimeout(s.cfg.RecvTimeout)
		if !ok {
			if s.cfg.cancelled() || !p.Alive(0) {
				return false, nil // coordinator gone: abandon the barrier
			}
			continue
		}
		switch m.Tag {
		case tagCkptGo:
			cm, _ := m.Data.(ckptMsg) // a malformed release carries no halt
			depositPart(p, s.cfg, 0, s.capture(p, barrier, false))
			return cm.halt, nil
		case tagCkptReq:
			// The coordinator abandoned the previous barrier and
			// opened the next one; answer the fresh request.
			if cm, okPayload := m.Data.(ckptMsg); okPayload {
				barrier = cm.barrier
			}
			p.Send(0, tagCkptAck, ckptMsg{barrier: barrier}, 0)
		default:
			if err := s.foldShare(p, m); err != nil {
				return false, err
			}
		}
	}
}

// shareRing is the rotating communication list of a collaborating searcher
// — every collaborative process and every master of the combined variant;
// the plain asynchronous master carries an empty one. It is captured into
// and restored from the searcher's checkpoint part.
type shareRing struct {
	peers   []int
	initial bool // the initial phase: nothing is sent until it ends
	shares  int  // messages sent
}

// share runs the sharing that follows a step. On the ring, the initial
// phase ends the first time the archive stagnates; after it, once dead
// peers are dropped, an improving solution goes to the peer at the head of
// the list, which then rotates to the back (the paper's scheme) — or to
// every peer under the ShareBroadcast ablation. Then, on a share
// epoch boundary, the primary searcher runs the cluster exchange. It fits
// every variant at this point: the synchronous master's workers are idle
// between iterations, as at the checkpoint barrier; the asynchronous
// master's late worker results queue in virtual time while the gather
// blocks in wall time, so the exchange never perturbs the decision
// function's trajectory; and collaborative peers keep searching while
// searcher 0 gathers — their shares queue in virtual time, exactly as
// during a checkpoint barrier — so what it folds reaches them through the
// in-process ring.
func (s *searcher) share(p deme.Proc, improved bool) {
	if g := s.ring; g != nil {
		if g.initial && s.noImprovement {
			g.initial = false
		}
		if len(g.peers) > 0 && !g.initial && improved {
			sp := s.tr.Start(s.phase, "share").SetInt("proc", int64(p.ID()))
			dropDeadPeers(p, &g.peers, s.tel)
			if len(g.peers) > 0 {
				n := len(g.peers) // the ShareBroadcast ablation: every peer
				if !s.cfg.ShareBroadcast {
					n = 1
				}
				for _, peer := range g.peers[:n] {
					p.Send(peer, tagShare, s.cur, solBytes(s.in))
				}
				if !s.cfg.ShareBroadcast {
					g.peers = append(g.peers[1:], g.peers[0])
				}
				g.shares += n
				s.tel.Add(telemetry.SharesSent, n)
			}
			sp.End()
		}
	}
	if s.cfg.shareDue(s.iter) && s.shareOn && !s.done(p) {
		s.exchange(p)
	}
}

// dropDeadPeers removes peers whose process is gone — crashed or already
// finished — from a share ring, so searchers stop addressing the dead.
func dropDeadPeers(p deme.Proc, commList *[]int, tel *telemetry.Telemetry) {
	kept := (*commList)[:0]
	for _, peer := range *commList {
		if p.Alive(peer) {
			kept = append(kept, peer)
		} else {
			tel.Inc(telemetry.PeerDrops)
		}
	}
	*commList = kept
}
