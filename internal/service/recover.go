package service

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/resultio"
	"repro/internal/telemetry"
)

// Open starts a Service. With cfg.DataDir set the service is durable: job
// state is journaled (journal.go) and checkpointed, and Open begins by
// recovering whatever a previous process — cleanly drained or killed mid
// job — left behind. Recovery replays the journal, re-serves terminal jobs
// from their persisted results, re-queues incomplete jobs from their
// latest on-disk checkpoint (or from their spec when none was reached),
// and compacts the journal before the worker pool starts. Without a
// DataDir, Open is New: an in-memory service that cannot fail to
// construct.
func Open(cfg Config) (*Service, error) {
	cfg.applyDefaults()
	s := &Service{
		cfg:    cfg,
		stop:   make(chan struct{}),
		jobs:   make(map[string]*Job),
		idem:   make(map[string]string),
		met:    newSvcMetrics(),
		shares: newShareHub(),
		sched:  newScheduler(),
	}
	var requeue []*Job
	if cfg.DataDir != "" {
		if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
			return nil, fmt.Errorf("service: creating data dir: %w", err)
		}
		jl, recs, torn, err := openJournal(filepath.Join(cfg.DataDir, "journal.jsonl"), cfg.Logger)
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
		s.jl = jl
		s.torn = torn
		requeue = s.replay(recs)
		if err := s.jl.rewrite(s.compactRecords()); err != nil {
			return nil, fmt.Errorf("service: compacting journal: %w", err)
		}
	}
	// Recovered incomplete jobs bypass admission control: lanes are
	// unbounded, so they all fit back regardless of the configured queue
	// bound or tenant quotas (those apply to new submissions only). Each
	// re-enters its own tenant's lane, so fair-share holds across a
	// restart. The recovering gauge holds readiness false until every
	// requeued job has been dispatched once or turned terminal.
	s.recovering.Store(int64(len(requeue)))
	for _, j := range requeue {
		j.recoveredPending = true
		pol := cfg.Tenants.Policy(j.Spec.Tenant)
		s.jobWG.Add(1)
		s.sched.enqueue(j, pol.Weight, pol.MaxConcurrent)
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// replayJob accumulates one job's journal records during replay.
type replayJob struct {
	spec    JobSpec
	state   State
	evicted bool
	// term is the job's terminal record, when it has one.
	term journalRecord
	// muts retains the job's mutate records in journal (commit) order;
	// replayMutations folds or re-primes them against the recovered
	// checkpoint.
	muts []journalRecord
}

// replay folds the journal into the job table. Terminal jobs come back
// with their persisted result and the scalars of their terminal record,
// without an instance; every other job comes back queued, carrying the
// checkpoint in its directory when that decodes. Jobs whose records are
// incomplete (a torn submit) or whose spec no longer validates are logged
// and dropped — recovery keeps every job it can and never refuses to
// start. It returns the jobs to put back on the queue, in submission
// order.
func (s *Service) replay(recs []journalRecord) []*Job {
	table := make(map[string]*replayJob)
	var order []string
	for _, rec := range recs {
		if rec.Job == "" {
			continue
		}
		rj := table[rec.Job]
		if rj == nil {
			if rec.Type != "submit" || rec.Spec == nil {
				s.cfg.Logger.Warn("recovery: dropping record for unknown job", "job", rec.Job, "type", rec.Type)
				continue
			}
			rj = &replayJob{spec: *rec.Spec, state: StateQueued}
			table[rec.Job] = rj
			order = append(order, rec.Job)
		}
		switch rec.Type {
		case "submit": // handled above
		case "start", "ckpt": // written by older daemons; nothing reads them
		case "mutate":
			rj.muts = append(rj.muts, rec)
		case string(StateDone), string(StateFailed), string(StateCanceled):
			rj.state = State(rec.Type)
			rj.term = rec
		case "evict":
			rj.evicted = true
		default:
			s.cfg.Logger.Warn("recovery: unknown journal record type", "job", rec.Job, "type", rec.Type)
		}
		if n := idNumber(rec.Job); n > s.nextID {
			s.nextID = n
		}
	}

	var requeue []*Job
	for _, id := range order {
		rj := table[id]
		if rj.evicted {
			continue
		}
		var j *Job
		var ff *resultio.FrontFile
		var err error
		if rj.state.Terminal() {
			ff = s.loadResult(id)
			name := rj.term.Instance
			if name == "" && ff != nil {
				name = ff.Instance // a terminal record written before it carried the name
			}
			j, err = jobFromSpec(rj.spec, &s.cfg, name)
		} else {
			j, err = newJob(rj.spec, &s.cfg)
		}
		if err != nil {
			s.cfg.Logger.Warn("recovery: dropping job with invalid spec", "job", id, "error", err)
			continue
		}
		j.svc = s
		j.ID = id
		if key := rj.spec.IdempotencyKey; key != "" {
			s.idem[key] = id
		}
		if rj.state.Terminal() {
			j.state, j.errText = rj.state, rj.term.Error
			j.customers, j.iterations = rj.term.Customers, rj.term.Iterations
			j.dropRunState() // a migrated job's spec carries a checkpoint
			j.cancel()       // nothing will run; release the job context
			if ff != nil {
				j.result = ff
				for _, sol := range ff.Solutions {
					pt := FrontPoint{Distance: sol.Distance, Vehicles: sol.Vehicles, Tardiness: sol.Tardiness}
					pt.Feasible = pt.objectives().Feasible()
					j.front = append(j.front, pt)
				}
			}
			j.emit(telemetry.Record{Kind: "recovered", Values: map[string]any{"job": id, "state": string(rj.state)}})
			j.events.Finish()
			s.recovered++
		} else {
			// Queued or mid-run at the crash: back on the queue, resuming
			// from the checkpoint in the job's directory. The job started
			// in an empty directory, so that file is its own latest, newer
			// than any checkpoint a migration shipped in the spec; without
			// one the job starts from its spec.
			if ck, raw := s.loadCheckpoint(id); ck != nil {
				j.resume = ck
				j.setCheckpoint(ck.Barrier, raw)
			}
			if len(rj.muts) > 0 && j.dyn == nil {
				s.cfg.Logger.Warn("recovery: dropping mutations for a job that is no longer mutable", "job", id, "batches", len(rj.muts))
			}
			if j.dyn != nil && (len(rj.muts) > 0 || j.resume != nil) {
				s.replayMutations(j, rj.muts)
			}
			fields := map[string]any{"job": id}
			if j.resume != nil {
				fields["barrier"] = j.resume.Barrier
			}
			j.emit(telemetry.Record{Kind: "requeued", Values: fields})
			requeue = append(requeue, j)
			s.requeued++
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	return requeue
}

// replayMutations re-establishes a recovered job's mutation state from
// its journaled mutate records. A mutation epoch's checkpoint only ever
// persists in its patched form (the core skips the sink at halt
// barriers; jobMutations.Apply writes the spliced one), so the fold
// rule is exact: a record with epoch at or below the recovered
// checkpoint's barrier is already spliced into that checkpoint and is
// folded into the job's base instance; a record above it never was and
// is re-primed at its original epoch — applied exactly once when the
// resumed run reaches it. A checkpoint whose digest does not match the
// fold (damaged journal, or a patched write that never landed) is
// discarded: the job restarts from scratch with every batch re-primed,
// which costs recomputation but keeps the (seed, mutation log) replay
// exact.
func (s *Service) replayMutations(j *Job, muts []journalRecord) {
	recs := append([]journalRecord(nil), muts...)
	// Epoch order is application order; records pinned out of order by
	// explicit-epoch PATCHes journal out of order. The stable sort keeps
	// same-epoch batches in commit order, matching the validated log.
	sort.SliceStable(recs, func(a, b int) bool { return recs[a].Barrier < recs[b].Barrier })
	barrier := 0
	if j.resume != nil {
		barrier = j.resume.Barrier
	}
	folded := j.in
	var later []journalRecord
	for _, rec := range recs {
		if rec.Barrier > barrier {
			later = append(later, rec)
			continue
		}
		for i := range rec.Muts {
			// Per-mutation projection mirrors Apply's skip-invalid
			// semantics: an invalid mutation was rejected at apply time,
			// so skipping it here reproduces the spliced instance.
			d, err := dynamic.Project(folded, rec.Muts[i:i+1])
			if err != nil {
				s.cfg.Logger.Warn("recovery: skipping mutation the run rejected", "job", j.ID, "epoch", rec.Barrier, "error", err)
				continue
			}
			folded = d
		}
	}
	if j.resume != nil && core.InstanceDigest(folded) != j.resume.InstanceDigest {
		s.cfg.Logger.Warn("recovery: checkpoint does not match the folded mutation log; restarting job from scratch",
			"job", j.ID, "barrier", barrier, "batches", len(recs))
		j.resume = nil
		j.setCheckpoint(0, nil)
		later = recs
	} else {
		j.in = folded
	}
	if j.resume != nil {
		// Folded epochs stay behind the schedule's high-water mark;
		// re-primed ones stay ahead of it.
		j.dyn.Advance(j.resume.Barrier)
	}
	for _, rec := range later {
		if err := j.dyn.AddAt(rec.Barrier, rec.Muts); err != nil {
			s.cfg.Logger.Warn("recovery: re-priming mutation batch", "job", j.ID, "epoch", rec.Barrier, "error", err)
		}
	}
	// Compaction must keep every record: the folded ones rebuild j.in on
	// the next recovery, the later ones replay into the run.
	j.recoveredMuts = recs
}

// compactRecords renders the post-replay job table as a minimal journal:
// one submit record per retained job plus its terminal record, or, for an
// incomplete job, its mutate records — the fold needs all of them to
// reconstruct the mutated instance.
func (s *Service) compactRecords() []journalRecord {
	var recs []journalRecord
	for _, id := range s.order {
		j := s.jobs[id]
		spec := j.Spec
		recs = append(recs, journalRecord{Type: "submit", Job: id, Spec: &spec})
		if j.state.Terminal() {
			recs = append(recs, j.terminalRecord())
		} else {
			recs = append(recs, j.recoveredMuts...)
		}
	}
	return recs
}

// loadResult reads a job's persisted result file, nil when absent or
// unreadable (the job then reports no result, like a canceled-while-queued
// job).
func (s *Service) loadResult(id string) *resultio.FrontFile {
	f, err := os.Open(filepath.Join(s.jobDir(id), "result.json"))
	if err != nil {
		return nil
	}
	defer f.Close()
	ff, err := resultio.Read(f)
	if err != nil {
		s.cfg.Logger.Warn("recovery: unreadable result file", "job", id, "error", err)
		return nil
	}
	return ff
}

// loadCheckpoint reads and decodes a job's latest checkpoint (returning
// both the decoded form and the raw envelope, which seeds the migration
// cache); nil when the file is missing, which is not logged — the job has
// not reached its first barrier — or damaged, which is. The job then
// starts from its spec, which is always safe.
func (s *Service) loadCheckpoint(id string) (*core.Checkpoint, []byte) {
	data, err := os.ReadFile(filepath.Join(s.jobDir(id), "ckpt.json"))
	if os.IsNotExist(err) {
		return nil, nil
	}
	var ck *core.Checkpoint
	if err == nil {
		ck, err = core.DecodeCheckpoint(data)
	}
	if err != nil {
		s.cfg.Logger.Warn("recovery: unreadable checkpoint, starting job from its spec", "job", id, "error", err)
		return nil, nil
	}
	return ck, data
}

// jobDir is the per-job durable directory (checkpoints and results).
func (s *Service) jobDir(id string) string {
	return filepath.Join(s.cfg.DataDir, "jobs", id)
}

// idNumber parses the numeric part of a service job id ("j000042" -> 42),
// 0 when the id has another shape.
func idNumber(id string) int {
	if len(id) < 2 || id[0] != 'j' {
		return 0
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 0
		}
		n = n*10 + int(c-'0')
	}
	return n
}
