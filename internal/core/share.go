// Cross-run sharing: the hooks that let sibling runs — typically shards of
// one cluster job on different daemons — exchange archive-entering
// solutions while they search, extending the collaborative variant's ring
// across process (and machine) boundaries.
//
// The exchange is epoch-synchronized: every ShareEvery master iterations
// the primary searcher publishes the batch of solutions that entered its
// archive since the previous boundary, then gathers the same-epoch batches
// of every sibling shard and folds them into M_nondom in shard order. The
// barrier makes the folded content a pure function of the sibling
// trajectories — independent of network timing — which is what lets a
// cluster-share run replay bit-identically from its seed and resume from a
// checkpoint taken on a different machine.
package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/deme"
	"repro/internal/solution"
	"repro/internal/telemetry"
)

// ShareBatch is one shard's contribution to one share epoch: the solutions
// (routes only — receivers re-evaluate, bit-identically) that entered its
// archive during the epoch. Done marks a shard that has finished (or died
// with its node): siblings stop waiting for it, the cluster analogue of
// dropDeadPeers.
type ShareBatch struct {
	Shard     int       `json:"shard"`
	Epoch     int       `json:"epoch"`
	Solutions [][][]int `json:"solutions,omitempty"`
	Done      bool      `json:"done,omitempty"`
}

// ShareExchange connects one run to its sibling shards. Implementations
// live outside core (internal/service feeds, internal/cluster gatherers);
// core only publishes, gathers and folds.
//
// Publish hands the local batch for one epoch outward; the implementation
// stamps the shard index. Gather blocks until every live sibling's batch
// for the epoch is available (or the sibling is known Done, or ctx is
// cancelled) and returns the sibling batches — never the local shard's
// own. History returns every batch published so far, newest last, for
// checkpoint capture; Prime replays such a history into a fresh exchange
// on resume, so siblings that reconnect can still fetch pre-migration
// epochs.
type ShareExchange interface {
	Publish(ShareBatch)
	Gather(ctx context.Context, epoch int) ([]ShareBatch, error)
	History() []ShareBatch
	Prime([]ShareBatch)
}

// shareDue reports whether the primary searcher's iteration count sits on
// a share-epoch boundary. Like checkpointDue it is checked after a step,
// so a run resumed from a checkpoint at iteration k never re-fires the
// epoch that ended at k.
func (c *Config) shareDue(iter int) bool {
	return c.Share != nil && c.ShareEvery > 0 && iter > 0 && iter%c.ShareEvery == 0
}

// exchange runs one share epoch on the primary searcher: publish the
// solutions accepted since the last boundary, gather the sibling batches
// of the same epoch, and fold them into M_nondom in shard order, charging
// the same modeled handling cost as an in-process share. A gather failure
// degrades the epoch (nothing folded) and is counted; it never stops the
// search.
func (s *searcher) exchange(p deme.Proc) {
	cfg := s.cfg
	epoch := s.iter / cfg.ShareEvery
	sp := s.tr.Start(s.phase, "cluster_share").
		SetInt("proc", int64(p.ID())).
		SetInt("epoch", int64(epoch))
	defer sp.End()

	out := ShareBatch{Epoch: epoch, Solutions: s.shareOut}
	s.shareOut = nil
	tel := cfg.Telemetry
	cfg.Share.Publish(out)
	s.xshares += len(out.Solutions)
	tel.Add(telemetry.SharesSent, len(out.Solutions))

	ctx := cfg.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	batches, err := cfg.Share.Gather(ctx, epoch)
	if err != nil {
		// Cancelled runs stop at the next done() poll; other gather
		// failures (a mid-migration sibling, say) skip the fold — the
		// epoch content degrades deterministically to "nothing arrived".
		if ctx.Err() == nil {
			tel.Inc(telemetry.MalformedMsgs)
			sp.SetAttr("error", err.Error())
		}
		return
	}
	// Shard order, not arrival order: the fold sequence must be a pure
	// function of the batch contents for bit-identical replays.
	sort.Slice(batches, func(i, j int) bool { return batches[i].Shard < batches[j].Shard })
	folded := 0
	for _, b := range batches {
		if b.Epoch != epoch {
			tel.Inc(telemetry.MalformedMsgs)
			continue
		}
		for _, routes := range b.Solutions {
			// The trust boundary for routes that crossed a machine: a
			// peer's malformed share is counted, never materialized.
			if solution.CheckRoutes(s.in, routes) != nil {
				tel.Inc(telemetry.MalformedMsgs)
				continue
			}
			s.absorb(p, solution.New(s.in, routes))
			folded++
		}
	}
	sp.SetInt("published", int64(len(out.Solutions))).
		SetInt("folded", int64(folded))
}

// foldShare absorbs a solution shared by another searcher of the run
// (tagShare); barrier control traffic and other strays are ignored. A
// payload that is not a solution is counted and returned as a protocol
// error.
func (s *searcher) foldShare(p deme.Proc, m deme.Message) error {
	if m.Tag != tagShare {
		return nil
	}
	sol, ok := m.Data.(*solution.Solution)
	if !ok {
		s.tel.Inc(telemetry.MalformedMsgs)
		return fmt.Errorf("peer %d sent a malformed share payload %T", m.From, m.Data)
	}
	s.absorb(p, sol)
	return nil
}

// absorb merges a shared solution — from an in-process peer or a sibling
// shard — into M_nondom and counts whether it was accepted or dominated on
// arrival. Deserializing a foreign solution and checking it against the
// 50-entry M_nondom costs several times a plain neighbor update.
func (s *searcher) absorb(p deme.Proc, sol *solution.Solution) {
	p.Compute(shareHandlingFactor * s.cfg.Cost.OverheadPerNeighbor)
	if s.nondom.Add(sol) {
		s.tel.Inc(telemetry.SharesAccepted)
	} else {
		s.tel.Inc(telemetry.SharesRejected)
	}
}
