package service

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// smallSpec is a job that finishes in well under a second.
func smallSpec() JobSpec {
	return JobSpec{
		Instance:       InstanceSpec{Class: "R1", N: 40, Seed: 3},
		MaxEvaluations: 1500,
		Seed:           7,
	}
}

// longSpec is a job that would run for minutes if never cancelled.
func longSpec() JobSpec {
	s := smallSpec()
	s.MaxEvaluations = 50_000_000
	return s
}

func testService(t *testing.T, cfg Config) *Service {
	t.Helper()
	svc := New(cfg)
	t.Cleanup(svc.Close)
	return svc
}

// waitState polls until the job reaches want.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.State() == want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s; want %s", j.ID, j.State(), want)
}

func TestSubmitValidation(t *testing.T) {
	svc := testService(t, Config{Workers: 1, MaxEvaluations: 10_000, MaxProcessors: 4, MaxCustomers: 100})
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"no instance", JobSpec{}, "instance"},
		{"both instance forms", JobSpec{Instance: InstanceSpec{Class: "R1", N: 10, Solomon: "x"}}, "mutually exclusive"},
		{"bad class", JobSpec{Instance: InstanceSpec{Class: "Z9", N: 10}}, "Z9"},
		{"bad solomon", JobSpec{Instance: InstanceSpec{Solomon: "not an instance"}}, "instance"},
		{"bad algorithm", func() JobSpec { s := smallSpec(); s.Algorithm = "simulated-annealing"; return s }(), "algorithm"},
		{"bad backend", func() JobSpec { s := smallSpec(); s.Backend = "quantum"; return s }(), "backend"},
		{"evals over limit", func() JobSpec { s := smallSpec(); s.MaxEvaluations = 1_000_000; return s }(), "exceeds"},
		{"procs over limit", func() JobSpec { s := smallSpec(); s.Algorithm = "asynchronous"; s.Processors = 12; return s }(), "exceeds"},
		{"instance over limit", JobSpec{Instance: InstanceSpec{Class: "R1", N: 500, Seed: 1}}, "exceeds"},
		// A resume checkpoint whose coordination timeout the run would
		// adopt and never return with: refused at submission.
		{"resume with a negative recv_timeout", func() JobSpec {
			s := smallSpec()
			var err error
			s.Resume, err = core.EncodeCheckpoint(&core.Checkpoint{Barrier: 1, Algorithm: "sequential", Processors: 1,
				Every: 1, RecvTimeout: -1, Parts: []*core.SearcherState{{}}})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}(), "RecvTimeout"},
	}
	for _, tc := range cases {
		if _, err := svc.Submit(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v; want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestJobRunsToCompletion(t *testing.T) {
	svc := testService(t, Config{Workers: 1})
	j, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	st := j.Status()
	if st.Evaluations < 1500 {
		t.Errorf("done job reports %d evaluations; want >= budget", st.Evaluations)
	}
	if len(st.Front) == 0 {
		t.Error("done job has an empty live front")
	}
	if st.Hypervolume <= 0 {
		t.Errorf("hypervolume = %v; want > 0", st.Hypervolume)
	}
	if res := j.Result(); res == nil || len(res.Solutions) == 0 {
		t.Error("done job has no stored result")
	}
	evs, _, terminal, _ := j.events.Since(0)
	if !terminal {
		t.Error("done job not marked terminal in its event stream")
	}
	var names []string
	for _, e := range evs {
		name, _ := e.ev.Render()
		names = append(names, name)
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"queued", "started", "init", "archive_accept", "done"} {
		if !strings.Contains(joined, want) {
			t.Errorf("event stream %v missing %q", names, want)
		}
	}
}

// TestQueueBackpressure fills a 2-worker, depth-1 service with long jobs
// and expects the 4th submission to bounce with ErrQueueFull.
func TestQueueBackpressure(t *testing.T) {
	svc := testService(t, Config{Workers: 2, QueueDepth: 1, MaxEvaluations: -1})
	// Fill both workers first (waiting for the pickup each time, so the
	// depth-1 queue is empty again), then park a third job in the queue:
	// the 4th submission then overflows deterministically.
	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := svc.Submit(longSpec())
		if err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
		jobs = append(jobs, j)
		deadline := time.Now().Add(10 * time.Second)
		for i < 2 && svc.Stats().Busy < i+1 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if _, err := svc.Submit(longSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("4th submission: got %v; want ErrQueueFull", err)
	}
	for _, j := range jobs {
		j.Cancel()
	}
	for _, j := range jobs {
		waitState(t, j, StateCanceled)
	}
}

// TestCancelQueuedJob cancels a job that never left the queue.
func TestCancelQueuedJob(t *testing.T) {
	svc := testService(t, Config{Workers: 1, QueueDepth: 2, MaxEvaluations: -1})
	running, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, running, StateRunning)
	queued, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if state := queued.Cancel(); state != StateCanceled {
		t.Fatalf("cancelling a queued job: state %s; want canceled immediately", state)
	}
	running.Cancel()
	waitState(t, running, StateCanceled)
	if res := running.Result(); res == nil {
		t.Error("canceled running job lost its partial result")
	} else if res.Evaluations == 0 {
		t.Error("canceled running job reports no work")
	}
}

// TestCancelFreesWorker checks the acceptance criterion that DELETE on a
// running job frees its worker promptly: a small job submitted afterwards
// must complete.
func TestCancelFreesWorker(t *testing.T) {
	svc := testService(t, Config{Workers: 1, QueueDepth: 2, MaxEvaluations: -1})
	long, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, long, StateRunning)
	small, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := svc.Cancel(long.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, long, StateCanceled)
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("cancellation took %v; want within one iteration", d)
	}
	waitState(t, small, StateDone)
}

func TestDrainFinishesJobs(t *testing.T) {
	svc := New(Config{Workers: 2})
	a, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if a.State() != StateDone || b.State() != StateDone {
		t.Fatalf("after drain: %s/%s; want done/done", a.State(), b.State())
	}
	if _, err := svc.Submit(smallSpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission after drain: got %v; want ErrDraining", err)
	}
	if got := svc.Stats().Status; got != "draining" {
		t.Errorf("status = %q; want draining", got)
	}
}

// TestDrainGraceCancelsStragglers drains with an already-expired grace
// context and expects running jobs to be cancelled, keeping their work.
func TestDrainGraceCancelsStragglers(t *testing.T) {
	svc := New(Config{Workers: 1, MaxEvaluations: -1})
	j, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateRunning)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if j.State() != StateCanceled {
		t.Fatalf("job state after forced drain: %s; want canceled", j.State())
	}
}

func TestStats(t *testing.T) {
	svc := testService(t, Config{Workers: 2, QueueDepth: 4, Version: "test-1"})
	st := svc.Stats()
	if st.Status != "ok" || st.Workers != 2 || st.QueueCap != 4 || st.Version != "test-1" {
		t.Fatalf("unexpected stats: %+v", st)
	}
	j, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	if got := svc.Stats().Jobs[StateDone]; got != 1 {
		t.Errorf("done count = %d; want 1", got)
	}
}

// TestBusyCountedBeforeRunning checks that a worker counts itself busy
// before its job shows as running: healthz must never report an idle
// worker beside a running job, or a cluster coordinator polling in that
// window places a second shard on the node. Each round first holds the
// service lock while the worker picks the job up — the busy count waits
// on it, so a job that turns running meanwhile was not counted first —
// then polls State() and Stats() as a client would.
func TestBusyCountedBeforeRunning(t *testing.T) {
	svc := testService(t, Config{Workers: 1, QueueDepth: 2, MaxEvaluations: -1})
	for round := 0; round < 5; round++ {
		j, err := svc.Submit(longSpec())
		if err != nil {
			t.Fatal(err)
		}
		svc.mu.Lock()
		deadline := time.Now().Add(50 * time.Millisecond)
		for j.State() == StateQueued && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		state, busy := j.State(), svc.busy
		svc.mu.Unlock()
		if state == StateRunning && busy == 0 {
			t.Fatalf("round %d: job %s is running while no worker counts busy", round, j.ID)
		}
		deadline = time.Now().Add(10 * time.Second)
		for {
			state := j.State()
			st := svc.Stats()
			if state == StateRunning {
				if st.Busy == 0 {
					t.Fatalf("round %d: healthz reports no busy worker beside running job %s", round, j.ID)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("round %d: job %s never started", round, j.ID)
			}
		}
		j.Cancel()
		waitState(t, j, StateCanceled)
		for svc.Stats().Busy != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: worker never went idle", round)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestEviction keeps only the newest terminal jobs.
func TestEviction(t *testing.T) {
	svc := testService(t, Config{Workers: 1, RetainJobs: 2, QueueDepth: 8})
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := svc.Submit(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
		ids = append(ids, j.ID)
	}
	if _, ok := svc.Job(ids[0]); ok {
		t.Error("oldest terminal job not evicted")
	}
	if _, ok := svc.Job(ids[3]); !ok {
		t.Error("newest job evicted")
	}
	if got := len(svc.Jobs()); got > 3 {
		t.Errorf("retained %d jobs; want <= RetainJobs+1", got)
	}
}
