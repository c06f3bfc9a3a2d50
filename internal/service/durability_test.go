package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/dynamic"
	"repro/internal/resultio"
	"repro/internal/telemetry"
)

// durableConfig is a durable single-worker service rooted at a fresh
// temporary directory, checkpointing every few iterations so even short
// test jobs cross several barriers.
func durableConfig(t *testing.T) Config {
	t.Helper()
	return Config{Workers: 1, DataDir: t.TempDir(), CheckpointEvery: 3}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	jl, recs, torn, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || torn != 0 {
		t.Fatalf("fresh journal: %d records, %d torn", len(recs), torn)
	}
	spec := smallSpec()
	want := []journalRecord{
		{Type: "submit", Job: "j000001", Spec: &spec},
		{Type: "start", Job: "j000001"},
		{Type: "ckpt", Job: "j000001", Barrier: 4},
		{Type: "done", Job: "j000001"},
	}
	for _, rec := range want {
		if err := jl.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	jl2, recs, torn, err := openJournal(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	if torn != 0 {
		t.Fatalf("torn records on clean reopen: %d", torn)
	}
	if len(recs) != len(want) {
		t.Fatalf("reopened journal has %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Type != want[i].Type || rec.Job != want[i].Job || rec.Barrier != want[i].Barrier {
			t.Errorf("record %d: got %+v, want %+v", i, rec, want[i])
		}
		if rec.TS.IsZero() {
			t.Errorf("record %d lost its timestamp", i)
		}
	}
	if recs[0].Spec == nil || recs[0].Spec.MaxEvaluations != spec.MaxEvaluations {
		t.Errorf("submit record lost its spec: %+v", recs[0].Spec)
	}
}

// TestJournalTornTail crashes mid-append: the final record is half a JSON
// object. Recovery must log and drop it — never refuse to start — and keep
// every intact record before it.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.jsonl")
	spec := smallSpec()
	specJSON, err := json.Marshal(journalRecord{Type: "submit", Job: "j000001", Spec: &spec, TS: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	doneJSON, err := json.Marshal(journalRecord{Type: "done", Job: "j000001", TS: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	content := string(specJSON) + "\n" + string(doneJSON) + "\n" + `{"type":"submit","job":"j0000`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}

	svc, err := Open(Config{Workers: 1, DataDir: dir})
	if err != nil {
		t.Fatalf("recovery refused a torn journal: %v", err)
	}
	defer svc.Close()
	st := svc.Stats()
	if st.TornRecords != 1 {
		t.Errorf("torn records: got %d, want 1", st.TornRecords)
	}
	if st.Recovered != 1 {
		t.Errorf("recovered jobs: got %d, want 1", st.Recovered)
	}
	j, ok := svc.Job("j000001")
	if !ok {
		t.Fatal("job lost during torn-tail recovery")
	}
	if j.State() != StateDone {
		t.Errorf("recovered job state: got %s, want done", j.State())
	}
}

// TestDurableRestartServesResults drains a durable service and reopens its
// data directory: finished jobs must come back terminal, still serving
// their persisted fronts and totals.
func TestDurableRestartServesResults(t *testing.T) {
	cfg := durableConfig(t)
	svc := New(cfg)
	j, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	res := j.Result()
	if res == nil || len(res.Solutions) == 0 {
		t.Fatal("job finished without a front")
	}
	svc.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	j2, ok := svc2.Job(j.ID)
	if !ok {
		t.Fatalf("job %s not recovered", j.ID)
	}
	if j2.State() != StateDone {
		t.Fatalf("recovered job state: got %s, want done", j2.State())
	}
	ff := j2.Result()
	if ff == nil {
		t.Fatal("recovered job serves no result")
	}
	if ff.Evaluations != res.Evaluations {
		t.Errorf("restored evaluations: got %d, want %d", ff.Evaluations, res.Evaluations)
	}
	if len(ff.Solutions) != len(res.Solutions) {
		t.Fatalf("restored front size: got %d, want %d", len(ff.Solutions), len(res.Solutions))
	}
	for i, sol := range ff.Solutions {
		if sol.Distance != res.Solutions[i].Distance ||
			sol.Vehicles != res.Solutions[i].Vehicles ||
			sol.Tardiness != res.Solutions[i].Tardiness {
			t.Errorf("restored front[%d] objectives diverged: %+v", i, sol)
		}
	}
	st := j2.Status()
	if st.Evaluations != int64(res.Evaluations) {
		t.Errorf("status evaluations: got %d, want %d", st.Evaluations, res.Evaluations)
	}
}

// copyTree copies a data directory as a crash snapshot: everything fsynced
// by the service is on disk, so the copy is what a kill -9 at that instant
// would have left behind.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if os.IsNotExist(err) {
			// The service is still running: an in-flight *.tmp can vanish
			// between readdir and stat. A kill -9 snapshot would not have
			// carried the un-fsynced temp file either, so skip it.
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			return nil // same race, lost between stat and read
		}
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashRecoveryResumesDeterministically snapshots a durable service's
// data directory while a job is mid-run — past at least one checkpoint —
// and opens a second service on the snapshot, exactly what a kill -9 and
// restart would do. The resumed job must finish with a front bit-identical
// to an uninterrupted reference run of the same spec. It does so twice:
// on the snapshot as written, and on a copy whose journal holds the
// literal records an earlier version wrote for the same job — a spec
// carrying the since removed eval_workers knob and a ckpt note naming it —
// which is a daemon upgraded in place over an old data directory.
func TestCrashRecoveryResumesDeterministically(t *testing.T) {
	spec := JobSpec{
		Instance:       InstanceSpec{Class: "R1", N: 40, Seed: 3},
		Algorithm:      "asynchronous",
		Processors:     3,
		MaxEvaluations: 60_000,
		Seed:           7,
	}

	// Reference: the same durable configuration, run to completion.
	refCfg := durableConfig(t)
	refSvc := New(refCfg)
	refJob, err := refSvc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, refJob, StateDone)
	ref := refJob.Result()
	if ref == nil || len(ref.Solutions) == 0 {
		t.Fatal("reference job produced no front")
	}
	refSvc.Close()

	// Victim: snapshot its data directory once the first checkpoint is on
	// disk, while the job is still running.
	cfg := durableConfig(t)
	svc := New(cfg)
	j, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(cfg.DataDir, "jobs", j.ID, "ckpt.json")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckptPath); err == nil {
			break
		}
		if j.State().Terminal() {
			t.Fatal("job finished before its first checkpoint; lower CheckpointEvery")
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	snapshot := t.TempDir()
	copyTree(t, cfg.DataDir, snapshot)
	svc.Close()
	ck := readCheckpoint(t, filepath.Join(snapshot, "jobs", j.ID, "ckpt.json"))

	parentFormat := t.TempDir()
	copyTree(t, snapshot, parentFormat)
	parentJournal := fmt.Sprintf(`{"type":"submit","ts":"2026-10-17T11:31:23.02954142Z","job":"%[1]s","spec":{"instance":{"class":"R1","n":40,"seed":3},"algorithm":"asynchronous","processors":3,"seed":7,"max_evaluations":60000,"eval_workers":2,"tenant":"anonymous"}}
{"type":"start","ts":"2026-10-17T11:31:23.030059091Z","job":"%[1]s"}
{"type":"ckpt","ts":"2026-10-17T11:31:23.033361625Z","job":"%[1]s","barrier":1,"note":"granular_k=0 eval_workers=2"}
`, j.ID)
	jpath := filepath.Join(parentFormat, "journal.jsonl")
	if err := os.WriteFile(jpath, []byte(parentJournal), 0o644); err != nil {
		t.Fatal(err)
	}

	// Restart on each snapshot: the job must be re-queued and resumed.
	for _, tc := range []struct{ name, dir string }{{"current", snapshot}, {"parent-format", parentFormat}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg2 := cfg
			cfg2.DataDir = tc.dir
			svc2, err := Open(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			defer svc2.Close()
			if got := svc2.Stats().Requeued; got != 1 {
				t.Fatalf("requeued jobs after crash: got %d, want 1", got)
			}
			j2, ok := svc2.Job(j.ID)
			if !ok {
				t.Fatalf("job %s not recovered from snapshot", j.ID)
			}
			// A restart from scratch reaches the same front on the
			// simulator: check that the job resumed the snapshot's
			// checkpoint.
			if got := requeuedBarrier(t, j2); got != ck.Barrier {
				t.Errorf("job requeued at barrier %d; want %d, the snapshot checkpoint's", got, ck.Barrier)
			}
			waitState(t, j2, StateDone)
			if j2.tel.Load(telemetry.CkptResumes) == 0 {
				t.Error("the recovered job did not resume from a checkpoint")
			}
			checkSameFront(t, j2.Result(), ref)
		})
	}
	// Recovery compacted the old records into the current format.
	if raw, err := os.ReadFile(jpath); err != nil {
		t.Fatal(err)
	} else if strings.Contains(string(raw), "eval_workers") {
		t.Errorf("compacted journal still carries eval_workers:\n%s", raw)
	}
}

// readCheckpoint decodes the checkpoint file at path.
func readCheckpoint(t *testing.T, path string) *core.Checkpoint {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := core.DecodeCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// requeuedBarrier returns the barrier a recovered job's requeued event
// names, -1 when it names none (the job starts from its spec).
func requeuedBarrier(t *testing.T, j *Job) int {
	t.Helper()
	evs, _, _, _ := j.events.Since(0)
	for _, e := range evs {
		if name, fields := e.ev.Render(); name == "requeued" {
			if b, ok := fields["barrier"].(int); ok {
				return b
			}
			return -1
		}
	}
	t.Fatalf("job %s has no requeued event", j.ID)
	return -1
}

// TestSubmitStartsInEmptyJobDir: recovery drops a job whose spec no
// longer validates — the service's customer limit was lowered — and
// leaves its directory, checkpoint included, behind, while compaction
// drops its records, so the next restart hands its ID out again. The new
// job holding that ID must start in an empty directory: a crash before
// its first barrier then recovers it from its spec, not from the dropped
// job's checkpoint.
func TestSubmitStartsInEmptyJobDir(t *testing.T) {
	cfg := durableConfig(t)
	cfg.MaxEvaluations = -1
	svc := New(cfg)
	dropped, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	rel := filepath.Join("jobs", dropped.ID, "ckpt.json")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(cfg.DataDir, rel)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
	dir := t.TempDir()
	copyTree(t, cfg.DataDir, dir)
	svc.Close()

	svc2, err := Open(Config{Workers: 1, DataDir: dir, MaxEvaluations: -1, MaxCustomers: 30})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(svc2.Jobs()); n != 0 {
		t.Fatalf("recovery kept %d jobs; want the 40-customer job dropped", n)
	}
	svc2.Close()
	if _, err := os.Stat(filepath.Join(dir, rel)); err != nil {
		t.Fatalf("the dropped job's checkpoint is not left behind: %v", err)
	}

	// Its first barrier lies far past what the test lets the job run.
	cfg3 := Config{Workers: 1, DataDir: dir, MaxEvaluations: -1, CheckpointEvery: 1_000_000}
	svc3 := New(cfg3)
	j, err := svc3.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != dropped.ID {
		t.Fatalf("new job is %s; want the dropped job's ID %s handed out again", j.ID, dropped.ID)
	}
	if _, err := os.Stat(filepath.Join(dir, rel)); !os.IsNotExist(err) {
		t.Fatalf("the dropped job's checkpoint outlived the new job's submission: %v", err)
	}
	crash := t.TempDir()
	copyTree(t, dir, crash)
	svc3.Close()

	cfg3.DataDir = crash
	svc4, err := Open(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	defer svc4.Close()
	j4, ok := svc4.Job(j.ID)
	if !ok {
		t.Fatalf("job %s not recovered", j.ID)
	}
	if got := requeuedBarrier(t, j4); got != -1 {
		t.Errorf("job requeued at barrier %d; want it started from its spec", got)
	}
}

// TestSubmitRefusesResumeRoutes: a resume whose routes do not fit the
// spec's instance is refused at submission with the route check's error,
// before anything is journaled, so a coordinator migrating it sees a 400.
func TestSubmitRefusesResumeRoutes(t *testing.T) {
	spec := smallSpec()
	in, err := specInstance(spec.Instance, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed, cfg.Processors, cfg.MaxEvaluations, cfg.CheckpointEvery = spec.Seed, 1, spec.MaxEvaluations, 3
	var first []byte
	cfg.CheckpointSink = func(ck *core.Checkpoint) error {
		if first == nil {
			first, err = core.EncodeCheckpoint(ck)
		}
		return err
	}
	if _, err := core.RunContext(t.Context(), core.Sequential, in, cfg, deme.NewSim(deme.Origin3800())); err != nil {
		t.Fatal(err)
	}
	ck, err := core.DecodeCheckpoint(first)
	if err != nil {
		t.Fatal(err)
	}
	ck.Parts[0].Cur[0] = append(ck.Parts[0].Cur[0], in.N()+5)
	if spec.Resume, err = core.EncodeCheckpoint(ck); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	svc := testService(t, Config{Workers: 1, DataDir: dir})
	_, err = svc.Submit(spec)
	want := "resume: core: checkpoint part 0: solution: route 0 holds customer 45 (instance has 40)"
	if err == nil || err.Error() != want {
		t.Fatalf("submit = %v; want %q", err, want)
	}
	if n := len(svc.Jobs()); n != 0 {
		t.Errorf("refused spec left %d jobs", n)
	}
	if st, err := os.Stat(filepath.Join(dir, "journal.jsonl")); err != nil || st.Size() != 0 {
		t.Errorf("refused spec left journal bytes: %v, %v", st.Size(), err)
	}
}

// checkSameFront compares a resumed job's front with a reference run's:
// evaluations, objectives and every route stop.
func checkSameFront(t *testing.T, res, ref *resultio.FrontFile) {
	t.Helper()
	if res == nil {
		t.Fatal("resumed job produced no result")
	}
	if res.Evaluations != ref.Evaluations {
		t.Errorf("evaluations: resumed %d, reference %d", res.Evaluations, ref.Evaluations)
	}
	if len(res.Solutions) != len(ref.Solutions) {
		t.Fatalf("front size: resumed %d, reference %d", len(res.Solutions), len(ref.Solutions))
	}
	for i := range ref.Solutions {
		if g, w := res.Solutions[i], ref.Solutions[i]; g.Distance != w.Distance || g.Vehicles != w.Vehicles || g.Tardiness != w.Tardiness {
			t.Errorf("front[%d] objectives: resumed %+v, reference %+v", i, g, w)
		}
		if len(res.Solutions[i].Routes) != len(ref.Solutions[i].Routes) {
			t.Errorf("front[%d]: route counts differ", i)
			continue
		}
		for r := range ref.Solutions[i].Routes {
			w, g := ref.Solutions[i].Routes[r], res.Solutions[i].Routes[r]
			if len(w) != len(g) {
				t.Errorf("front[%d] route %d differs", i, r)
				continue
			}
			for k := range w {
				if w[k] != g[k] {
					t.Errorf("front[%d] route %d differs at stop %d", i, r, k)
					break
				}
			}
		}
	}
}

// TestIdempotentSubmit covers retry safety: a duplicate key returns the
// original job in-process and — on a durable service — across a restart.
func TestIdempotentSubmit(t *testing.T) {
	cfg := durableConfig(t)
	svc := New(cfg)
	spec := smallSpec()
	spec.IdempotencyKey = "retry-me"
	j1, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID != j2.ID {
		t.Fatalf("duplicate key created a second job: %s vs %s", j1.ID, j2.ID)
	}
	waitState(t, j1, StateDone)
	svc.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	j3, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != j1.ID {
		t.Fatalf("idempotency key did not survive the restart: %s vs %s", j3.ID, j1.ID)
	}
	if j3.State() != StateDone {
		t.Errorf("recovered idempotent job state: got %s, want done", j3.State())
	}

	// A different key is a different job.
	spec.IdempotencyKey = "another"
	j4, err := svc2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if j4.ID == j1.ID {
		t.Error("distinct keys shared a job")
	}
}

// TestJournalCompaction: reopening rewrites the journal to its minimal
// form, so it does not grow without bound across restarts.
func TestJournalCompaction(t *testing.T) {
	cfg := durableConfig(t)
	svc := New(cfg)
	for i := 0; i < 3; i++ {
		j, err := svc.Submit(smallSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
	}
	svc.Close()

	svc2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc2.Close()

	_, recs, torn, err := openJournal(filepath.Join(cfg.DataDir, "journal.jsonl"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if torn != 0 {
		t.Fatalf("compacted journal has %d torn records", torn)
	}
	// 3 jobs × (submit + done), nothing else.
	if len(recs) != 6 {
		t.Errorf("compacted journal has %d records, want 6", len(recs))
	}
}

// TestTornMutateBeforeCkptRecovery doctors a crash snapshot so the torn
// journal record is a mutate immediately followed by a ckpt record for
// the same job — the nastiest WAL tail for the exactly-once fold,
// because the checkpoint on disk embodies a mutation the journal no
// longer proves. (Only an older daemon wrote ckpt records; recovery
// ignores them and reads the checkpoint file either way.) Recovery must
// notice the digest mismatch, discard the checkpoint, and restart from
// scratch with only the surviving batch re-primed: the torn batch is not
// half- or double-applied (the folded window), and the intact batch
// applies exactly once (the re-prime window). The recovered front must
// be bit-identical to a reference run that only ever had the surviving
// batch.
func TestTornMutateBeforeCkptRecovery(t *testing.T) {
	spec := smallSpec()
	spec.MaxEvaluations = 60_000
	mutTorn := []dynamic.Mutation{{Version: dynamic.Version, Op: dynamic.CancelCustomer, Customer: 5}}
	mutKept := []dynamic.Mutation{{Version: dynamic.Version, Op: dynamic.UpdateDemand, Customer: 3, Demand: 5}}

	// startPinned submits spec behind a worker-blocking job, pins the
	// given batches to their epochs while the job is still queued (so the
	// schedule is exact), then releases the worker.
	startPinned := func(svc *Service, batches map[int][]dynamic.Mutation) *Job {
		t.Helper()
		blocker, err := svc.Submit(longSpec())
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, blocker, StateRunning)
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		epochs := make([]int, 0, len(batches))
		for e := range batches {
			epochs = append(epochs, e)
		}
		sort.Ints(epochs)
		for _, e := range epochs {
			if _, err := svc.Mutate(j.ID, e, batches[e]); err != nil {
				t.Fatalf("pinning batch at epoch %d: %v", e, err)
			}
		}
		if _, err := svc.Cancel(blocker.ID); err != nil {
			t.Fatal(err)
		}
		return j
	}

	// Reference: a run that only ever had the surviving batch.
	refCfg := Config{Workers: 1, DataDir: t.TempDir(), CheckpointEvery: 3, MaxEvaluations: -1}
	refSvc := New(refCfg)
	refJob := startPinned(refSvc, map[int][]dynamic.Mutation{4: mutKept})
	waitState(t, refJob, StateDone)
	ref := refJob.Result()
	if ref == nil || len(ref.Solutions) == 0 {
		t.Fatal("reference job produced no front")
	}
	refSvc.Close()

	// Victim: both batches pinned; snapshot once the checkpoint is past
	// both barriers, so both batches are in the checkpoint's folded
	// window.
	cfg := Config{Workers: 1, DataDir: t.TempDir(), CheckpointEvery: 3, MaxEvaluations: -1}
	svc := New(cfg)
	j := startPinned(svc, map[int][]dynamic.Mutation{2: mutTorn, 4: mutKept})
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, barrier := j.CheckpointData(); barrier >= 5 {
			break
		}
		if j.State().Terminal() {
			t.Fatal("job finished before reaching barrier 5; raise the budget")
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached barrier 5")
		}
		time.Sleep(time.Millisecond)
	}
	snapshot := t.TempDir()
	copyTree(t, cfg.DataDir, snapshot)
	svc.Close()

	// Doctor the snapshot's journal: the victim job's records become
	// submit, start, the intact mutate@4, a torn half of mutate@2, then a
	// ckpt record pointing at the checkpoint on disk — so the torn record
	// is a mutate immediately followed by a ckpt record for the same job.
	// Only an older daemon wrote start and ckpt records, so those two
	// lines take its literal format.
	jpath := filepath.Join(snapshot, "journal.jsonl")
	raw, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var head []string
	var submitLine, tornLine, keptLine string
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("snapshot journal has an unparsable line before doctoring: %q", line)
		}
		if rec.Job != j.ID {
			head = append(head, line)
			continue
		}
		switch rec.Type {
		case "submit":
			submitLine = line
		case "mutate":
			if rec.Barrier == 2 {
				tornLine = line
			} else {
				keptLine = line
			}
		default:
			t.Fatalf("unexpected %q record for the running victim", rec.Type)
		}
	}
	if submitLine == "" || tornLine == "" || keptLine == "" {
		t.Fatalf("snapshot journal is missing records: submit=%t mut2=%t mut4=%t",
			submitLine != "", tornLine != "", keptLine != "")
	}
	ck := readCheckpoint(t, filepath.Join(snapshot, "jobs", j.ID, "ckpt.json"))
	startLine := fmt.Sprintf(`{"type":"start","ts":"2026-10-17T11:31:23.030059091Z","job":"%s"}`, j.ID)
	ckptLine := fmt.Sprintf(`{"type":"ckpt","ts":"2026-10-17T11:31:23.033361625Z","job":"%s","barrier":%d,"note":"granular_k=0"}`,
		j.ID, ck.Barrier)
	torn := tornLine[:len(tornLine)/2]
	if json.Valid([]byte(torn)) {
		t.Fatalf("half of the mutate record still parses: %q", torn)
	}
	doctored := append(append([]string{}, head...), submitLine, startLine, keptLine, torn, ckptLine)
	// Guard: the scenario needs the torn mutate followed immediately by
	// a ckpt record for the same job.
	var next journalRecord
	if err := json.Unmarshal([]byte(doctored[len(head)+4]), &next); err != nil ||
		next.Type != "ckpt" || next.Job != j.ID {
		t.Fatalf("doctored journal does not place a ckpt right after the torn mutate: %+v", next)
	}
	if err := os.WriteFile(jpath, []byte(strings.Join(doctored, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Recover from the doctored snapshot.
	cfg2 := cfg
	cfg2.DataDir = snapshot
	svc2, err := Open(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	st := svc2.Stats()
	if st.TornRecords != 1 {
		t.Errorf("torn records: got %d, want 1", st.TornRecords)
	}
	if st.Requeued != 1 {
		t.Errorf("requeued jobs: got %d, want 1", st.Requeued)
	}
	j2, ok := svc2.Job(j.ID)
	if !ok {
		t.Fatal("victim job not recovered")
	}
	// The checkpoint embodied the torn batch, so the digest cannot match
	// the surviving mutation log: recovery must have discarded it.
	if _, barrier := j2.CheckpointData(); barrier != 0 {
		t.Errorf("recovery kept a checkpoint (barrier %d) that embodies the torn mutation", barrier)
	}
	waitState(t, j2, StateDone)
	res := j2.Result()
	if res == nil {
		t.Fatal("recovered job produced no result")
	}
	if res.Evaluations != ref.Evaluations {
		t.Errorf("evaluations: recovered %d, reference %d", res.Evaluations, ref.Evaluations)
	}
	if len(res.Solutions) != len(ref.Solutions) {
		t.Fatalf("front size: recovered %d, reference %d", len(res.Solutions), len(ref.Solutions))
	}
	for i := range ref.Solutions {
		if g, w := res.Solutions[i], ref.Solutions[i]; g.Distance != w.Distance || g.Vehicles != w.Vehicles || g.Tardiness != w.Tardiness {
			t.Errorf("front[%d] objectives: recovered %+v, reference %+v", i, g, w)
		}
	}
}
