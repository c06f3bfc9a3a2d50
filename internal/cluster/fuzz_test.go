package cluster

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/core"
	"repro/internal/solution"
	"repro/internal/sse"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// FuzzClusterMessages feeds hostile peer bytes through every decode path
// a cluster node exposes to its peers: the SSE share frame (gatherer
// dispatch), the checkpoint envelope a migration ships, and the route
// payloads inside a share batch. The contract under fuzz: malformed input
// surfaces as a counted error or a rejected frame — never a panic, never
// a solution object built from garbage.
func FuzzClusterMessages(f *testing.F) {
	// Seed corpus: a well-formed batch, near-misses and plain garbage.
	f.Add([]byte(`{"shard":1,"epoch":3,"solutions":[[[1,2],[3]]]}`))
	f.Add([]byte(`{"shard":1,"epoch":0}`))
	f.Add([]byte(`{"shard":9,"epoch":3}`))
	f.Add([]byte(`{"shard":1,"epoch":2,"solutions":[[[0]]]}`))
	f.Add([]byte(`{"shard":1,"epoch":2,"solutions":[[[1,1,1]]]}`))
	f.Add([]byte(`{"version":1,"algorithm":"sequential","barrier":2,"checksum":"deadbeef"}`))
	f.Add([]byte(`{"version":99}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Add([]byte(``))

	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 12, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Checkpoint envelope from a peer: decodes or errors, never panics.
		if ck, err := core.DecodeCheckpoint(data); err == nil && ck == nil {
			t.Fatal("DecodeCheckpoint returned neither checkpoint nor error")
		}

		// SSE share frame through the gatherer, exactly as the follower
		// goroutine dispatches it.
		tel := telemetry.New(nil, nil)
		g := &gatherer{
			shards: 2,
			shares: &tel.Peers,
			peers:  map[int]*peerFeed{1: {epochs: make(map[int]core.ShareBatch)}},
			notify: make(chan struct{}),
		}
		if g.dispatch(1, "shard-1", sse.Frame{Event: "share", Data: data}) {
			t.Fatal("share dispatch must absorb hostile frames, got done")
		}
		accepted := len(g.peers[1].epochs) == 1
		rejected := tel.Peers.Get("shard-1").Malformed.Load() == 1
		if accepted == rejected {
			t.Fatalf("frame neither cleanly accepted nor counted malformed (accepted=%v rejected=%v)", accepted, rejected)
		}
		if accepted {
			// An accepted batch must satisfy Gather for its epoch.
			for _, b := range g.peers[1].epochs {
				got, err := g.Gather(context.Background(), b.Epoch)
				if err != nil || len(got) != 1 {
					t.Fatalf("accepted batch not gatherable: %v %v", got, err)
				}
			}
		}

		// Route payloads inside a batch hit the core trust boundary: a
		// plan the check accepts must build without a panic.
		var b core.ShareBatch
		if json.Unmarshal(data, &b) == nil {
			for _, routes := range b.Solutions {
				if solution.CheckRoutes(in, routes) == nil {
					solution.New(in, routes)
				}
			}
		}
	})
}
