package service

import (
	"context"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/vrptw"
)

// TestMutateProjectionCache checks the projection a PATCH is validated
// against, over random batches: epoch-0 and explicit-epoch ones (some
// pinned below an epoch already queued), valid and invalid. After every
// accepted batch the job's cached projection must equal its base
// instance projected through the schedule's whole log; a refused batch
// must change neither the log nor the cache. The test plays the job's
// run itself — the job stays queued behind a blocker — halting at
// barriers and applying the due epochs, sometimes on an instance missing
// its last customer, so Apply rejects mutations and shortens the log.
func TestMutateProjectionCache(t *testing.T) {
	svc := testService(t, Config{Workers: 1, QueueDepth: 2, MaxEvaluations: -1, CheckpointEvery: 3})
	blocker, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Cancel()
	waitState(t, blocker, StateRunning)
	j, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	if j.dyn == nil {
		t.Fatal("job has no mutation schedule")
	}
	cache := func() projection {
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.proj
	}

	r := rand.New(rand.NewPCG(1, 2))
	runIn, barrier := j.in, 0
	queued := map[int]bool{} // epochs with a pending batch
	var accepted, extended, pinnedBelow, refused, rejected int
	for step := 0; step < 400; step++ {
		if r.IntN(5) == 0 {
			barrier++
			if !j.dyn.HaltAt(barrier) {
				continue
			}
			in := runIn
			if r.IntN(4) == 0 {
				if in, _, _, err = in.RemoveSite(in.N()); err != nil {
					t.Fatal(err)
				}
			}
			nin, _, err := j.dyn.Apply(context.Background(), in, &core.Checkpoint{Barrier: barrier})
			if err != nil {
				t.Fatalf("apply at barrier %d: %v", barrier, err)
			}
			runIn = nin
			for e := range queued {
				if e <= barrier {
					delete(queued, e)
				}
			}
			continue
		}

		cur := j.in
		if c := cache(); c.in != nil {
			cur = c.in
		}
		muts := make([]dynamic.Mutation, 1+r.IntN(3))
		for i := range muts {
			muts[i] = randomMutation(r, cur, r.IntN(6) == 0)
		}
		epoch := 0
		if r.IntN(2) == 0 {
			epoch = barrier + 1 + r.IntN(6)
		}
		logBefore, before := j.dyn.Log(), cache()
		committed, err := svc.Mutate(j.ID, epoch, muts)
		if err != nil {
			refused++
			if after := cache(); !slices.Equal(j.dyn.Log(), logBefore) || after.in != before.in || !slices.Equal(after.log, before.log) {
				t.Fatalf("step %d: refused batch (%v) changed the log or the cache", step, err)
			}
			continue
		}
		accepted++
		log := j.dyn.Log()
		if before.in != nil && len(log) > len(before.log) && slices.Equal(log[:len(before.log)], before.log) {
			extended++
		}
		for e := range queued {
			if e > committed {
				pinnedBelow++
				break
			}
		}
		queued[committed] = true
		want, err := dynamic.Project(j.in, log)
		if err != nil {
			t.Fatalf("step %d: accepted batch leaves a log that does not project: %v", step, err)
		}
		got := cache()
		if !slices.Equal(got.log, log) || core.InstanceDigest(got.in) != core.InstanceDigest(want) {
			t.Fatalf("step %d: cached projection differs from the base instance projected through the %d-mutation log", step, len(log))
		}
	}
	for _, rep := range j.dyn.Reports() {
		rejected += rep.Rejected
	}
	t.Logf("%d batches accepted (%d extending the cached log, %d pinned below a queued epoch), %d refused, %d mutations rejected at apply",
		accepted, extended, pinnedBelow, refused, rejected)
	if extended < 20 || pinnedBelow < 20 || refused == 0 || rejected == 0 {
		t.Fatal("the random sequence missed a case the cache must handle")
	}

	j.Cancel()
	if cache().in != nil {
		t.Error("a terminal job kept its cached projection")
	}
}

// randomMutation draws one mutation against in: an invalid one targets a
// customer past the last.
func randomMutation(r *rand.Rand, in *vrptw.Instance, invalid bool) dynamic.Mutation {
	n := in.N()
	c := 1 + r.IntN(n)
	if invalid {
		c = n + 1 + r.IntN(3)
	}
	s := in.Sites[min(c, n)]
	m := dynamic.Mutation{Version: dynamic.Version, Customer: c}
	switch r.IntN(4) {
	case 0:
		m.Op = dynamic.CancelCustomer
	case 1:
		m.Op, m.Ready, m.Due = dynamic.ShiftWindow, s.Ready/2, s.Due
	case 2:
		m.Op, m.Demand = dynamic.UpdateDemand, s.Demand/2
	default:
		if invalid {
			m.Op = dynamic.CancelCustomer
			break
		}
		m = dynamic.Mutation{Version: dynamic.Version, Op: dynamic.AddCustomer, Site: &vrptw.Site{
			X: s.X + 1, Y: s.Y + 1, Demand: 1, Ready: s.Ready, Due: s.Due, Service: s.Service}}
	}
	return m
}
