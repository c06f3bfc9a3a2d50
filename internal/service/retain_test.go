package service

import (
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/vrptw"
)

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // a second cycle frees what the first one's finalizers and pools released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTerminalJobRetainedHeap guards what a finished job keeps: its front
// and the scalars Status reads, never its instance or its checkpoints. A
// durable service retaining 16 of 32 finished R1 N=400 jobs must hold
// less live heap per retained job than one such instance holds once
// searched (sites, coordinates, arc bitset, k=20 lists: about 90 KB,
// measured here), both while it runs and after Open re-reads its data
// directory; a job that kept its instance would hold more than that
// alone.
func TestTerminalJobRetainedHeap(t *testing.T) {
	const retain, jobs = 16, 32
	cfg := Config{Workers: 1, RetainJobs: retain, DataDir: t.TempDir(), MaxEvaluations: -1}

	base := liveHeap()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 400, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	in.NeighborLists(20)
	perJob := int64(liveHeap()) - int64(base)
	runtime.KeepAlive(in)
	t.Logf("a searched R1 N=400 instance: %d KB live", perJob>>10)

	// Eviction runs at submission, so the last job to finish joins the
	// retained ones: retain+1 terminal jobs stay.
	check := func(phase string, svc *Service, base uint64) {
		t.Helper()
		n := svc.Stats().Jobs[StateDone]
		if n != retain+1 {
			t.Fatalf("%s: %d done jobs retained, want %d", phase, n, retain+1)
		}
		live := int64(liveHeap()) - int64(base)
		t.Logf("%s: %d KB live per retained job", phase, live/int64(n)>>10)
		if live >= int64(n)*perJob {
			t.Errorf("%s: %d KB live across %d retained jobs, want under %d KB each",
				phase, live>>10, n, perJob>>10)
		}
	}

	base = liveHeap()
	svc, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		j, err := svc.Submit(JobSpec{
			Instance:       InstanceSpec{Class: "R1", N: 400, Seed: uint64(i + 1)},
			MaxEvaluations: 20_000,
			Seed:           uint64(i + 2),
			GranularK:      20,
		})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
	}
	check("running service", svc, base)
	svc.Close()

	base = liveHeap()
	svc, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if n := svc.Stats().Recovered; n != retain+1 {
		t.Fatalf("recovered %d jobs, want %d", n, retain+1)
	}
	check("reopened service", svc, base)
}

// TestRecoveredStatusTotals checks that a terminal job recovered without
// its instance reports the Status totals it reported before the restart,
// and that a terminal record written before it carried them reports 0
// customers and iterations, naming its instance from result.json.
func TestRecoveredStatusTotals(t *testing.T) {
	cfg := durableConfig(t)
	svc := New(cfg)
	j, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	want := j.Status()
	svc.Close()
	if want.Customers != 40 || want.Iterations == 0 {
		t.Fatalf("live status: %d customers, %d iterations", want.Customers, want.Iterations)
	}

	reopen := func() Status {
		t.Helper()
		svc, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		j2, ok := svc.Job(j.ID)
		if !ok {
			t.Fatalf("job %s not recovered", j.ID)
		}
		return j2.Status()
	}
	got := reopen()
	if got.Instance != want.Instance || got.Customers != want.Customers || got.Iterations != want.Iterations ||
		got.Evaluations != want.Evaluations || got.Elapsed != want.Elapsed {
		t.Errorf("recovered status %s/%d customers/%d iterations/%d evaluations/%v s; want %s/%d/%d/%d/%v",
			got.Instance, got.Customers, got.Iterations, got.Evaluations, got.Elapsed,
			want.Instance, want.Customers, want.Iterations, want.Evaluations, want.Elapsed)
	}

	// Rewrite the terminal record as an older daemon wrote it.
	path := filepath.Join(cfg.DataDir, "journal.jsonl")
	jl, recs, _, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		recs[i].Instance, recs[i].Customers, recs[i].Iterations = "", 0, 0
	}
	if err := jl.rewrite(recs); err != nil {
		t.Fatal(err)
	}
	jl.Close()
	got = reopen()
	if got.Instance != want.Instance || got.Customers != 0 || got.Iterations != 0 || got.Evaluations != want.Evaluations {
		t.Errorf("status from an old terminal record: %s/%d customers/%d iterations/%d evaluations; want %s/0/0/%d",
			got.Instance, got.Customers, got.Iterations, got.Evaluations, want.Instance, want.Evaluations)
	}
}
