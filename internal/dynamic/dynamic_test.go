package dynamic

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

func testInstance(t testing.TB, n int) *vrptw.Instance {
	t.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: n, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func testConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = 1600
	cfg.NeighborhoodSize = 40
	cfg.RestartIterations = 20
	cfg.SampleEvery = 400
	cfg.CheckpointEvery = 8
	cfg.Seed = seed
	return cfg
}

// testBatch exercises all four ops: a widened window, a demand bump, a
// cancellation, and a new arrival. Indices are projected — 5 and 7 are
// below the cancelled 9, so they are stable across the batch.
func testBatch(in *vrptw.Instance) []Mutation {
	s5 := in.Sites[5]
	return []Mutation{
		{Version: 1, Op: ShiftWindow, Customer: 5, Ready: s5.Ready / 2, Due: s5.Due},
		{Version: 1, Op: UpdateDemand, Customer: 7, Demand: in.Sites[7].Demand + 5},
		{Version: 1, Op: CancelCustomer, Customer: 9},
		{Version: 1, Op: AddCustomer, Site: &vrptw.Site{
			X: s5.X + 3, Y: s5.Y + 2, Demand: 10,
			Ready: s5.Ready, Due: s5.Due, Service: s5.Service,
		}},
	}
}

// sameResult asserts bit-identity of everything a caller can observe.
func sameResult(t *testing.T, want, got *core.Result) {
	t.Helper()
	if got.Evaluations != want.Evaluations {
		t.Errorf("evaluations: got %d, want %d", got.Evaluations, want.Evaluations)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("iterations: got %d, want %d", got.Iterations, want.Iterations)
	}
	if got.Elapsed != want.Elapsed {
		t.Errorf("elapsed: got %v, want %v", got.Elapsed, want.Elapsed)
	}
	if len(got.Front) != len(want.Front) {
		t.Fatalf("front size: got %d, want %d", len(got.Front), len(want.Front))
	}
	for i := range want.Front {
		if got.Front[i].Obj != want.Front[i].Obj {
			t.Errorf("front[%d] objectives: got %+v, want %+v", i, got.Front[i].Obj, want.Front[i].Obj)
		}
		if fmt.Sprint(got.Front[i].Routes) != fmt.Sprint(want.Front[i].Routes) {
			t.Errorf("front[%d] routes differ", i)
		}
	}
	if len(got.Samples) != len(want.Samples) {
		t.Fatalf("samples: got %d, want %d", len(got.Samples), len(want.Samples))
	}
	for i := range want.Samples {
		if got.Samples[i] != want.Samples[i] {
			t.Errorf("sample[%d]: got %+v, want %+v", i, got.Samples[i], want.Samples[i])
		}
	}
}

func TestScheduleEpochs(t *testing.T) {
	sc := NewSchedule()
	m := Mutation{Version: 1, Op: CancelCustomer, Customer: 3}

	if _, err := sc.AddFunc(0, nil, nil); err == nil {
		t.Error("AddFunc accepted an empty batch")
	}
	e, err := sc.AddFunc(0, []Mutation{m}, nil)
	if err != nil || e != 1 {
		t.Fatalf("AddFunc before any barrier: epoch %d, err %v (want 1, nil)", e, err)
	}
	if !sc.HaltAt(1) {
		t.Error("HaltAt(1) = false with epoch 1 pending")
	}
	// Pending batches keep requesting the halt until Apply consumes them.
	if !sc.HaltAt(2) {
		t.Error("HaltAt(2) = false with epoch 1 still pending")
	}
	// The high-water mark is now 2: live adds pin to 3, stale explicit
	// epochs are refused.
	if e, _ := sc.AddFunc(0, []Mutation{m}, nil); e != 3 {
		t.Errorf("AddFunc after HaltAt(2) pinned epoch %d, want 3", e)
	}
	if err := sc.AddAt(2, []Mutation{m}); err == nil {
		t.Error("AddAt accepted an already-passed epoch")
	}
	if err := sc.AddAt(5, []Mutation{m}); err != nil {
		t.Errorf("AddAt(5): %v", err)
	}
	if sc.HaltAt(4) != true { // epochs 1 and 3 pending
		t.Error("HaltAt(4) = false with epochs pending")
	}
	if got := sc.Pending(); got != 3 {
		t.Errorf("Pending = %d, want 3", got)
	}
	if got := len(sc.Log()); got != 3 {
		t.Errorf("Log length = %d, want 3", got)
	}
}

func TestProjectValidatesMutations(t *testing.T) {
	in := testInstance(t, 20)
	if _, err := Project(in, testBatch(in)); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
	bad := []Mutation{{Version: 1, Op: CancelCustomer, Customer: 99}}
	if _, err := Project(in, bad); err == nil {
		t.Error("projection accepted an out-of-range cancellation")
	}
	if _, err := Project(in, []Mutation{{Version: 2, Op: CancelCustomer, Customer: 1}}); err == nil {
		t.Error("projection accepted an unknown mutation version")
	}
	if _, err := Project(in, []Mutation{{Version: 1, Op: "teleport"}}); err == nil {
		t.Error("projection accepted an unknown op")
	}
}

// TestApplyRepairsParts drives one offline Apply against a real checkpoint
// and verifies the repaired parts: the cancelled customer is gone, the new
// arrival is visited exactly once by every stored solution, no route
// exceeds capacity, and the checkpoint digest matches the new instance.
func TestApplyRepairsParts(t *testing.T) {
	in := testInstance(t, 25)
	cfg := testConfig(7)
	var cks []*core.Checkpoint
	cfg.CheckpointSink = func(ck *core.Checkpoint) error {
		cks = append(cks, ck)
		return nil
	}
	if _, err := core.Run(core.Sequential, in, cfg, deme.NewSim(deme.Origin3800())); err != nil {
		t.Fatal(err)
	}
	if len(cks) < 2 {
		t.Fatalf("run produced %d checkpoints", len(cks))
	}
	ck := cks[len(cks)/2]

	// The batch cancels customer 9 and — to force the ejection path — has
	// one mutation that pushes a customer's demand to the vehicle capacity.
	muts := testBatch(in)
	muts[1].Demand = in.Capacity
	sc := NewSchedule()
	if err := sc.AddAt(ck.Barrier, muts); err != nil {
		t.Fatal(err)
	}
	if !sc.HaltAt(ck.Barrier) {
		t.Fatal("HaltAt refused the primed epoch")
	}
	newIn, newCk, err := sc.Apply(context.Background(), in, ck)
	if err != nil {
		t.Fatal(err)
	}
	if newIn.N() != in.N() {
		t.Errorf("mutated instance has %d customers, want %d (one cancelled, one added)", newIn.N(), in.N())
	}
	if newCk.InstanceDigest != core.InstanceDigest(newIn) {
		t.Error("repaired checkpoint digest does not match the mutated instance")
	}
	if newCk.InstanceDigest == ck.InstanceDigest {
		t.Error("instance digest unchanged by the mutation")
	}

	checkRepaired(t, newIn, newCk)

	reps := sc.Reports()
	if len(reps) != 1 {
		t.Fatalf("got %d reports, want 1", len(reps))
	}
	rep := reps[0]
	if rep.Applied != 4 || rep.Rejected != 0 {
		t.Errorf("report counts applied %d rejected %d, want 4/0", rep.Applied, rep.Rejected)
	}
	if rep.Epoch != ck.Barrier {
		t.Errorf("report epoch %d, want %d", rep.Epoch, ck.Barrier)
	}
	if rep.Orphans == 0 {
		t.Error("report shows no orphan insertions despite an added customer")
	}
	if sc.Pending() != 0 {
		t.Errorf("schedule still has %d pending mutations after Apply", sc.Pending())
	}
	if sc.HaltAt(ck.Barrier + 1) {
		t.Error("HaltAt still true after Apply consumed the epoch")
	}
}

// checkRepaired fails unless every solution stored in ck's searcher parts
// visits each customer of in exactly once on routes within capacity,
// restores on in, and no part kept pending candidates.
func checkRepaired(t *testing.T, in *vrptw.Instance, ck *core.Checkpoint) {
	t.Helper()
	checkRoutes := func(label string, routes [][]int) {
		t.Helper()
		seen := make([]int, len(in.Sites))
		for _, route := range routes {
			var load float64
			for _, c := range route {
				if c < 1 || c > in.N() {
					t.Fatalf("%s visits out-of-range customer %d", label, c)
				}
				seen[c]++
				load += in.Sites[c].Demand
			}
			if load > in.Capacity {
				t.Errorf("%s has an overloaded route (load %g > capacity %g)", label, load, in.Capacity)
			}
		}
		for c := 1; c <= in.N(); c++ {
			if seen[c] != 1 {
				t.Errorf("%s visits customer %d %d times", label, c, seen[c])
			}
		}
	}
	for _, part := range ck.Parts {
		if part.Worker {
			continue
		}
		checkRoutes(fmt.Sprintf("part %d Cur", part.ID), part.Cur)
		for i, r := range part.Nondom {
			checkRoutes(fmt.Sprintf("part %d Nondom[%d]", part.ID, i), r)
		}
		for i, r := range part.Archive {
			checkRoutes(fmt.Sprintf("part %d Archive[%d]", part.ID, i), r)
		}
		if len(part.Pending) != 0 {
			t.Errorf("part %d kept %d pending candidates", part.ID, len(part.Pending))
		}
		// The repaired part must restore: solution.New must accept every
		// stored route list against the new instance.
		for _, r := range part.Nondom {
			_ = solution.New(in, r)
		}
	}
}

// TestApplyShiftsArrivalsPastCancels applies a batch whose cancellations
// follow its arrivals: cancelling customer 1 shifts both new customers
// down by one, and cancelling the first of them drops it from the
// arrivals to insert, so the repaired parts visit exactly the customers
// of the derived instance.
func TestApplyShiftsArrivalsPastCancels(t *testing.T) {
	in := testInstance(t, 25)
	cfg := testConfig(7)
	var ck *core.Checkpoint
	cfg.CheckpointSink = func(c *core.Checkpoint) error {
		if ck == nil {
			ck = c
		}
		return nil
	}
	if _, err := core.Run(core.Sequential, in, cfg, deme.NewSim(deme.Origin3800())); err != nil {
		t.Fatal(err)
	}
	if ck == nil {
		t.Fatal("run produced no checkpoint")
	}
	arrival := func(dx float64) Mutation {
		s := in.Sites[5]
		return Mutation{Version: 1, Op: AddCustomer, Site: &vrptw.Site{
			X: s.X + dx, Y: s.Y, Demand: 5, Ready: s.Ready, Due: s.Due, Service: s.Service}}
	}
	n := in.N()
	muts := []Mutation{
		arrival(2), // customer n+1
		arrival(4), // customer n+2
		{Version: 1, Op: CancelCustomer, Customer: 1}, // arrivals now n and n+1
		{Version: 1, Op: CancelCustomer, Customer: n}, // the first arrival
	}
	sc := NewSchedule()
	if err := sc.AddAt(ck.Barrier, muts); err != nil {
		t.Fatal(err)
	}
	sc.HaltAt(ck.Barrier)
	newIn, newCk, err := sc.Apply(context.Background(), in, ck)
	if err != nil {
		t.Fatal(err)
	}
	if newIn.N() != n || newIn.Sites[n].X != in.Sites[5].X+4 {
		t.Fatalf("derived instance has %d customers, the last at x=%g; want %d, the second arrival",
			newIn.N(), newIn.Sites[newIn.N()].X, n)
	}
	if rep := sc.Reports()[0]; rep.Applied != len(muts) || rep.Rejected != 0 {
		t.Fatalf("applied %d, rejected %d; want %d, 0", rep.Applied, rep.Rejected, len(muts))
	}
	checkRepaired(t, newIn, newCk)
}

// TestApplyRejectsInvalid: an epoch whose every mutation is invalid still
// consumes the halt and warm-restarts the unchanged checkpoint.
func TestApplyRejectsInvalid(t *testing.T) {
	in := testInstance(t, 20)
	cfg := testConfig(3)
	var cks []*core.Checkpoint
	cfg.CheckpointSink = func(ck *core.Checkpoint) error { cks = append(cks, ck); return nil }
	if _, err := core.Run(core.Sequential, in, cfg, deme.NewSim(deme.Origin3800())); err != nil {
		t.Fatal(err)
	}
	ck := cks[0]
	sc := NewSchedule()
	if err := sc.AddAt(ck.Barrier, []Mutation{{Version: 1, Op: CancelCustomer, Customer: 999}}); err != nil {
		t.Fatal(err)
	}
	sc.HaltAt(ck.Barrier)
	newIn, newCk, err := sc.Apply(context.Background(), in, ck)
	if err != nil {
		t.Fatal(err)
	}
	if newIn != in || newCk != ck {
		t.Error("an all-invalid epoch should return the inputs unchanged")
	}
	reps := sc.Reports()
	if len(reps) != 1 || reps[0].Rejected != 1 || reps[0].Applied != 0 {
		t.Errorf("unexpected reports %+v", reps)
	}
	if sc.HaltAt(ck.Barrier + 1) {
		t.Error("rejected epoch not consumed")
	}
}

// TestLiveEqualsResumeApply is the subsystem's defining property: mutating
// a live run at epoch E and running to the budget is bit-identical to
// resuming the barrier-E checkpoint, applying the same mutations offline,
// and running to the same budget.
func TestLiveEqualsResumeApply(t *testing.T) {
	in := testInstance(t, 25)
	const epoch = 3
	for _, alg := range []core.Algorithm{core.Sequential, core.Synchronous, core.Asynchronous, core.Collaborative} {
		for _, seed := range []uint64{1, 42} {
			t.Run(fmt.Sprintf("%v/seed%d", alg, seed), func(t *testing.T) {
				cfg := testConfig(seed)
				if alg != core.Sequential {
					cfg.Processors = 4
				}
				muts := testBatch(in)

				// Live path: the schedule is primed before the run, so the
				// halt fires at barrier `epoch` mid-run.
				live := NewSchedule()
				if err := live.AddAt(epoch, muts); err != nil {
					t.Fatal(err)
				}
				liveCfg := cfg
				liveCfg.Dynamic = live
				liveRes, err := core.Run(alg, in, liveCfg, deme.NewSim(deme.Origin3800()))
				if err != nil {
					t.Fatalf("live run: %v", err)
				}
				if got := len(live.Reports()); got != 1 {
					t.Fatalf("live run applied %d epochs, want 1", got)
				}

				// Offline path: plain run to collect the barrier-E
				// checkpoint, apply the same batch, resume to the budget.
				var ckE *core.Checkpoint
				refCfg := cfg
				refCfg.CheckpointSink = func(ck *core.Checkpoint) error {
					if ck.Barrier == epoch {
						data, err := core.EncodeCheckpoint(ck)
						if err != nil {
							return err
						}
						ckE, err = core.DecodeCheckpoint(data)
						return err
					}
					return nil
				}
				if _, err := core.Run(alg, in, refCfg, deme.NewSim(deme.Origin3800())); err != nil {
					t.Fatalf("reference run: %v", err)
				}
				if ckE == nil {
					t.Fatalf("reference run never reached barrier %d", epoch)
				}
				off := NewSchedule()
				if err := off.AddAt(epoch, muts); err != nil {
					t.Fatal(err)
				}
				off.HaltAt(epoch)
				newIn, newCk, err := off.Apply(context.Background(), in, ckE)
				if err != nil {
					t.Fatalf("offline apply: %v", err)
				}
				resumeRes, err := core.ResumeContext(t.Context(), newCk, newIn, cfg, deme.NewSim(deme.Origin3800()))
				if err != nil {
					t.Fatalf("resume: %v", err)
				}
				sameResult(t, liveRes, resumeRes)
			})
		}
	}
}

// TestResumeAfterNetSizeChange: the live-equals-resume property must hold
// for a batch that changes the customer count. The run derives its
// coordination timeouts from the instance it started with; a resume of the
// mutated checkpoint must adopt those materialized values (they ride in
// the checkpoint) instead of re-deriving them from the smaller instance —
// re-derivation would shift the config digest and refuse the resume.
func TestResumeAfterNetSizeChange(t *testing.T) {
	in := testInstance(t, 25)
	const epoch = 3
	muts := []Mutation{{Version: 1, Op: CancelCustomer, Customer: 9}}
	cfg := testConfig(7)
	cfg.Processors = 3

	live := NewSchedule()
	if err := live.AddAt(epoch, muts); err != nil {
		t.Fatal(err)
	}
	liveCfg := cfg
	liveCfg.Dynamic = live
	liveRes, err := core.Run(core.Asynchronous, in, liveCfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatalf("live run: %v", err)
	}

	var ckE *core.Checkpoint
	refCfg := cfg
	refCfg.CheckpointSink = func(ck *core.Checkpoint) error {
		if ck.Barrier == epoch {
			data, err := core.EncodeCheckpoint(ck)
			if err != nil {
				return err
			}
			ckE, err = core.DecodeCheckpoint(data)
			return err
		}
		return nil
	}
	if _, err := core.Run(core.Asynchronous, in, refCfg, deme.NewSim(deme.Origin3800())); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	if ckE == nil {
		t.Fatalf("reference run never reached barrier %d", epoch)
	}
	off := NewSchedule()
	if err := off.AddAt(epoch, muts); err != nil {
		t.Fatal(err)
	}
	off.HaltAt(epoch)
	newIn, newCk, err := off.Apply(context.Background(), in, ckE)
	if err != nil {
		t.Fatalf("offline apply: %v", err)
	}
	if newIn.N() != in.N()-1 {
		t.Fatalf("spliced instance has %d customers, want %d", newIn.N(), in.N()-1)
	}
	resumeRes, err := core.ResumeContext(t.Context(), newCk, newIn, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatalf("resume after net size change: %v", err)
	}
	sameResult(t, liveRes, resumeRes)
}

// TestReplayBitIdentical is the dynamic golden test: two runs with the
// same (seed, mutation log) produce bit-identical results on every
// checkpointable variant — including a log with two separate epochs.
func TestReplayBitIdentical(t *testing.T) {
	in := testInstance(t, 25)
	for _, alg := range []core.Algorithm{core.Sequential, core.Synchronous, core.Asynchronous, core.Collaborative} {
		t.Run(alg.String(), func(t *testing.T) {
			run := func() *core.Result {
				cfg := testConfig(11)
				if alg != core.Sequential {
					cfg.Processors = 4
				}
				sc := NewSchedule()
				if err := sc.AddAt(2, testBatch(in)[:2]); err != nil {
					t.Fatal(err)
				}
				if err := sc.AddAt(4, testBatch(in)[2:]); err != nil {
					t.Fatal(err)
				}
				cfg.Dynamic = sc
				res, err := core.Run(alg, in, cfg, deme.NewSim(deme.Origin3800()))
				if err != nil {
					t.Fatal(err)
				}
				if got := len(sc.Reports()); got != 2 {
					t.Fatalf("applied %d epochs, want 2", got)
				}
				return res
			}
			sameResult(t, run(), run())
		})
	}
}

// TestDynamicRequiresCheckpointing: core refuses a mutation source without
// a checkpoint interval (mutation epochs are checkpoint barriers).
func TestDynamicRequiresCheckpointing(t *testing.T) {
	in := testInstance(t, 20)
	cfg := testConfig(1)
	cfg.CheckpointEvery = 0
	cfg.Dynamic = NewSchedule()
	if _, err := core.Run(core.Sequential, in, cfg, deme.NewSim(deme.Ideal())); err == nil {
		t.Error("run accepted a Dynamic source without checkpointing")
	}
}
