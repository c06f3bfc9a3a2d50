package service

import "repro/internal/core"

// shareFeed drives a share feed, as the service's share hub creates it,
// through the publish / since / finish vocabulary of
// TestShareIngressConcurrentSubscribers.
type shareFeed struct{ hub *shareHub }

func newShareFeed() shareFeed { return shareFeed{newShareHub()} }

func (f shareFeed) publish(b core.ShareBatch) { f.hub.feed("ingress", 0).Append(b) }

func (f shareFeed) finish() { f.hub.feed("ingress", 0).Finish() }

// since returns the batches after the cursor, a channel closed once there
// is more to read or the feed is done, the number published and whether
// the feed is done.
func (f shareFeed) since(after int) (batches []core.ShareBatch, notify <-chan struct{}, total int, done bool) {
	l := f.hub.feed("ingress", 0)
	batches, _, done, notify = l.Since(after)
	return batches, notify, l.Last(), done
}
