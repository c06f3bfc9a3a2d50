// Cross-node share plumbing: the service side of core.ShareExchange.
//
// Every cluster-share job owns one share feed — an unbounded log of the
// ShareBatch values its searcher has published, numbered from 1 so SSE
// subscribers (sibling shards on other nodes, reached through the
// coordinator's share proxy) resume with an `after` cursor exactly like
// the job event stream. The feed is finished when the job turns terminal:
// the signal that tells subscribers no further epochs will ever arrive
// from this shard. The gather half is pluggable: Config.ShareDial
// returns a ShareGatherer that collects the sibling batches of an epoch,
// typically internal/cluster's SSE gatherer. The service itself never
// dials anything, keeping the service → cluster dependency one-way.
package service

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/seqlog"
)

// ShareGatherer collects sibling-shard batches for a cluster-share job.
// Gather blocks until every live sibling's batch for the epoch is
// available (or the sibling is known finished, or ctx is cancelled) and
// returns the batches gathered — never the local shard's own. Close
// releases the gatherer's connections; it is called once, after the job's
// search has returned.
type ShareGatherer interface {
	Gather(ctx context.Context, epoch int) ([]core.ShareBatch, error)
	Close()
}

// shareHub registers the node's share feeds by (group, shard). Feeds are
// created lazily by publisher and subscriber alike — a sibling may dial in
// before the local job has started — and live until the owning job is
// evicted.
type shareHub struct {
	mu    sync.Mutex
	feeds map[string]*seqlog.Log[core.ShareBatch]
}

func newShareHub() *shareHub {
	return &shareHub{feeds: make(map[string]*seqlog.Log[core.ShareBatch])}
}

func shareKey(group string, shard int) string {
	return group + "/" + strconv.Itoa(shard)
}

// feed returns the feed for (group, shard), creating it on first use.
func (h *shareHub) feed(group string, shard int) *seqlog.Log[core.ShareBatch] {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := shareKey(group, shard)
	f, ok := h.feeds[key]
	if !ok {
		f = seqlog.New[core.ShareBatch](0)
		h.feeds[key] = f
	}
	return f
}

// drop removes a feed (job eviction).
func (h *shareHub) drop(group string, shard int) {
	h.mu.Lock()
	delete(h.feeds, shareKey(group, shard))
	h.mu.Unlock()
}

// jobExchange adapts one job's feed plus its dialed gatherer to
// core.ShareExchange. Publish stamps the shard index; History and Prime
// read and extend the feed so checkpoints carry the publish history across
// a migration.
type jobExchange struct {
	shard  int
	feed   *seqlog.Log[core.ShareBatch]
	gather ShareGatherer // nil for a single-shard group: nothing to gather
}

func (x *jobExchange) Publish(b core.ShareBatch) {
	b.Shard = x.shard
	x.feed.Append(b)
}

func (x *jobExchange) Gather(ctx context.Context, epoch int) ([]core.ShareBatch, error) {
	if x.gather == nil {
		return nil, nil
	}
	return x.gather.Gather(ctx, epoch)
}

func (x *jobExchange) History() []core.ShareBatch {
	h, _ := x.feed.Snapshot()
	return h
}

// Prime appends the epochs of a checkpointed publish history the feed
// lacks — the resume path of a migrated job. The restored trajectory
// republishes the epochs after the checkpoint bit-identically, so numbers
// and contents line up with what subscribers saw before.
func (x *jobExchange) Prime(history []core.ShareBatch) {
	for _, b := range history[min(x.feed.Last(), len(history)):] {
		x.feed.Append(b)
	}
}

// validateShareSpec checks the cluster-share fields of a JobSpec against
// the service configuration. Zero-valued fields mean the job does not
// participate in cross-node sharing.
func validateShareSpec(spec *JobSpec, limits *Config) error {
	if spec.ShareGroup == "" {
		if spec.ShareShard != 0 || spec.ShareShards != 0 || spec.ShareEvery != 0 {
			return fmt.Errorf("share_group: required when share_shard, share_shards or share_every is set")
		}
		return nil
	}
	if spec.ShareShards < 1 {
		return fmt.Errorf("share_shards: must be >= 1, got %d", spec.ShareShards)
	}
	if spec.ShareShard < 0 || spec.ShareShard >= spec.ShareShards {
		return fmt.Errorf("share_shard: %d out of range [0,%d)", spec.ShareShard, spec.ShareShards)
	}
	if spec.ShareEvery < 0 {
		return fmt.Errorf("share_every: must be >= 0, got %d", spec.ShareEvery)
	}
	if spec.Algorithm == "combined" {
		return fmt.Errorf("share_group: cluster sharing does not support the combined variant")
	}
	if spec.ShareShards > 1 && limits.ShareDial == nil {
		return fmt.Errorf("share_group: this node is not part of a cluster (no share dialer configured)")
	}
	return nil
}
