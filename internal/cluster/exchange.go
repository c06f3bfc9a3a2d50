package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sse"
	"repro/internal/telemetry"
)

// shareRetryDelay is the pause between reconnect attempts of a share
// subscriber (owner dead, proxy said 503, stream broke). Variable so the
// sim harness can shrink it.
var shareRetryDelay = 200 * time.Millisecond

// Dialer returns the service.Config.ShareDial implementation for a node
// that joined a cluster: gatherers subscribe to every sibling shard's
// share stream through the coordinator's proxy, so they survive sibling
// migrations without knowing node addresses.
func Dialer(coordinator string, client *http.Client) func(group string, shard, shards int, tel *telemetry.Telemetry) (service.ShareGatherer, error) {
	if client == nil {
		client = http.DefaultClient
	}
	return func(group string, shard, shards int, tel *telemetry.Telemetry) (service.ShareGatherer, error) {
		ctx, cancel := context.WithCancel(context.Background())
		var shares *telemetry.PeerShareTable // nil-safe: counts nothing
		if tel != nil {
			shares = &tel.Peers
		}
		g := &gatherer{
			base:   coordinator,
			group:  group,
			shards: shards,
			client: client,
			shares: shares,
			ctx:    ctx,
			cancel: cancel,
			peers:  make(map[int]*peerFeed),
			notify: make(chan struct{}),
		}
		for i := 0; i < shards; i++ {
			if i == shard {
				continue
			}
			g.peers[i] = &peerFeed{epochs: make(map[int]core.ShareBatch)}
			g.wg.Add(1)
			go g.follow(i)
		}
		return g, nil
	}
}

// peerFeed is the gatherer's view of one sibling shard: the batches seen
// so far keyed by epoch (first write wins — a migrated sibling republishes
// its post-checkpoint epochs with identical content, so duplicates are
// dropped silently) and whether the sibling is done publishing.
type peerFeed struct {
	epochs map[int]core.ShareBatch
	done   bool
}

// gatherer implements service.ShareGatherer over SSE subscriptions routed
// through the coordinator. One goroutine per sibling follows that shard's
// stream, reconnecting with its index cursor across node deaths; Gather
// blocks until every sibling has either produced the requested epoch or
// finished for good.
type gatherer struct {
	base   string
	group  string
	shards int
	client *http.Client
	shares *telemetry.PeerShareTable // per-peer ingress counters
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu     sync.Mutex
	peers  map[int]*peerFeed
	notify chan struct{}
}

func (g *gatherer) wake() {
	close(g.notify)
	g.notify = make(chan struct{})
}

// Gather returns the sibling batches for one epoch, in shard order,
// omitting siblings that finished before reaching it. It blocks until the
// set is complete; ctx cancellation (the job was canceled) or Close are
// the only ways out early.
func (g *gatherer) Gather(ctx context.Context, epoch int) ([]core.ShareBatch, error) {
	for {
		g.mu.Lock()
		ready := true
		var out []core.ShareBatch
		for shard := 0; shard < g.shards; shard++ {
			p, ok := g.peers[shard]
			if !ok {
				continue
			}
			if b, got := p.epochs[epoch]; got {
				out = append(out, b)
				continue
			}
			if !p.done {
				ready = false
				break
			}
		}
		notify := g.notify
		g.mu.Unlock()
		if ready {
			return out, nil
		}
		select {
		case <-notify:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-g.ctx.Done():
			return nil, fmt.Errorf("share gatherer closed")
		}
	}
}

// Close stops the subscriber goroutines and waits them out.
func (g *gatherer) Close() {
	g.cancel()
	g.wg.Wait()
}

// markDone records that a sibling will publish no further epochs.
func (g *gatherer) markDone(shard int) {
	g.mu.Lock()
	g.peers[shard].done = true
	g.wake()
	g.mu.Unlock()
}

// follow subscribes to one sibling's share stream and keeps it flowing
// across failures: a broken stream or a 503 from the proxy (sibling
// between owners) backs off and reconnects with the index cursor; a 410
// means the sibling is gone for good. A done event only ends the
// current incarnation's stream — the shard may have been canceled for a
// steal or migration and be restarting elsewhere — so the follower asks
// the coordinator whether the shard is truly terminal before giving up;
// otherwise it re-dials and the proxy routes to the new owner (the
// cursor and first-wins epoch dedup absorb the bit-identical republish).
func (g *gatherer) follow(shard int) {
	defer g.wg.Done()
	peer := "shard-" + strconv.Itoa(shard)
	cursor := 0
	for {
		done, err := g.stream(shard, peer, &cursor)
		if done {
			if g.shardFinished(shard) {
				g.markDone(shard)
				return
			}
			err = nil // mid-flight cancel, not a countable peer failure
		}
		if err != nil && g.ctx.Err() == nil {
			g.shares.Get(peer).Bad()
		}
		select {
		case <-g.ctx.Done():
			return
		case <-time.After(shareRetryDelay):
		}
	}
}

// shardFinished asks the coordinator whether a sibling shard is
// terminal — the arbiter that distinguishes "finished for good" from
// "this incarnation was canceled mid-flight and is restarting on
// another node". Unreachable or undecided answers report false: the
// follower keeps re-dialing, which is always safe.
func (g *gatherer) shardFinished(shard int) bool {
	var st struct {
		Shards []struct {
			Shard int           `json:"shard"`
			State service.State `json:"state"`
		} `json:"shards"`
	}
	if call(g.ctx, g.client, http.MethodGet, g.base+"/v1/jobs/"+g.group, nil, nil).decode(http.StatusOK, &st) != nil {
		return false
	}
	for _, sh := range st.Shards {
		if sh.Shard == shard {
			return sh.State.Terminal()
		}
	}
	return false
}

// stream runs one subscription attempt. It returns done=true when the
// sibling will never publish again (done event, or 410 from the proxy)
// and an error for countable failures (a counted error, never a panic —
// malformed frames from a peer must not take the searcher down).
func (g *gatherer) stream(shard int, peer string, cursor *int) (bool, error) {
	url := g.base + "/v1/shares/" + g.group + "/" + strconv.Itoa(shard) + "?after=" + strconv.Itoa(*cursor)
	req, err := http.NewRequestWithContext(g.ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return false, nil // transport-level: retry silently, the node may be migrating
	}
	defer drain(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		return true, nil
	default:
		return false, nil // 503 while migrating, 404 before registration: retry
	}

	done := false
	err = sse.Read(resp.Body, func(f sse.Frame) bool {
		if f.ID > 0 {
			*cursor = f.ID
		}
		done = g.dispatch(shard, peer, f)
		return !done
	})
	return done, err // not done: the stream ended or broke; reconnect from the cursor
}

// drain consumes and closes a response body so the transport's connection
// can be reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10)) //nolint:errcheck // best effort
	resp.Body.Close()                                      //nolint:errcheck // read side
}

// dispatch folds one complete SSE frame into the peer's feed and reports
// whether it was the done frame.
func (g *gatherer) dispatch(shard int, peer string, f sse.Frame) bool {
	switch f.Event {
	case "share":
		var b core.ShareBatch
		if err := json.Unmarshal(f.Data, &b); err != nil {
			g.shares.Get(peer).Bad()
			return false // counted; the stream goes on
		}
		if b.Shard != shard || b.Epoch <= 0 {
			g.shares.Get(peer).Bad()
			return false
		}
		g.mu.Lock()
		p := g.peers[shard]
		if _, dup := p.epochs[b.Epoch]; !dup {
			p.epochs[b.Epoch] = b
			g.wake()
		}
		g.mu.Unlock()
		g.shares.Get(peer).Batch(len(b.Solutions))
		return false
	case "done":
		return true
	default:
		return false
	}
}
