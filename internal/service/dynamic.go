package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/telemetry"
	"repro/internal/tenant"
	"repro/internal/vrptw"
)

// Mutation failure modes, mapped to HTTP statuses by the handler.
var (
	// ErrTerminal: the job already finished; its instance is frozen
	// (HTTP 409).
	ErrTerminal = errors.New("service: job is terminal, its instance can no longer be mutated")
	// ErrNotDynamic: the job runs without checkpoint barriers — the
	// combined variant, an in-run MaxSeconds budget, a cluster-share
	// shard, or a service with checkpointing disabled — so there is no
	// deterministic epoch to splice a mutation at (HTTP 409).
	ErrNotDynamic = errors.New("service: job is not mutable (it runs without checkpoint barriers)")
)

// jobMutations adapts a job's mutation schedule into the run's
// core.MutationSource and owns the durability of mutation epochs: the
// core skips the checkpoint sink at halt barriers, so the patched
// checkpoint Apply produces here is the barrier's only persisted form.
// That makes recovery's fold rule exact — a journaled mutation with
// epoch at or below the recovered checkpoint's barrier is always already
// spliced into it, and one above it never is.
type jobMutations struct {
	j  *Job
	sc *dynamic.Schedule
}

func (m *jobMutations) HaltAt(b int) bool { return m.sc.HaltAt(b) }

func (m *jobMutations) Apply(ctx context.Context, in *vrptw.Instance, ck *core.Checkpoint) (*vrptw.Instance, *core.Checkpoint, error) {
	nin, nck, err := m.sc.Apply(ctx, in, ck)
	if err != nil {
		return nil, nil, err
	}
	j, s := m.j, m.j.svc
	data, err := core.EncodeCheckpoint(nck)
	if err != nil {
		return nil, nil, fmt.Errorf("encoding patched checkpoint: %w", err)
	}
	j.setCheckpoint(nck.Barrier, data)
	if s != nil && s.jl != nil {
		// A persistence failure is logged, not fatal: the disk keeps an
		// older checkpoint whose barrier precedes this epoch, so recovery
		// re-primes the mutation instead of folding it — still exactly
		// once, just with more recomputation.
		path := filepath.Join(s.jobDir(j.ID), "ckpt.json")
		if werr := writeFileSync(path, data); werr != nil {
			s.logWarn("persisting patched checkpoint", "job", j.ID, "barrier", nck.Barrier, "error", werr)
		} else if jerr := s.jl.append(journalRecord{Type: "ckpt", Job: j.ID, Barrier: nck.Barrier,
			Note: fingerprintNote(nck.GranularK)}); jerr != nil {
			s.logWarn("journal: patched ckpt record", "job", j.ID, "barrier", nck.Barrier, "error", jerr)
		}
	}
	return nin, nck, nil
}

// fingerprintNote renders the human-readable half of a checkpoint's
// config fingerprint for journal ckpt records.
func fingerprintNote(granularK int) string {
	return fmt.Sprintf("granular_k=%d", granularK)
}

// projection is a base instance projected through a mutation log.
type projection struct {
	log []dynamic.Mutation
	in  *vrptw.Instance // nil: no projection cached
}

// extend projects base through log. An added or cancelled customer
// copies the distance matrix, so when log starts with the cached log — a
// batch that landed at the tail of the log the previous batch committed —
// only the rest is projected, on top of the cached instance. Any other
// log (a batch pinned below an epoch already queued, a log the run
// shortened by rejecting a mutation, the first batch after recovery) is
// projected from base.
func (p projection) extend(base *vrptw.Instance, log []dynamic.Mutation) (*vrptw.Instance, error) {
	if p.in != nil && len(log) >= len(p.log) && slices.Equal(log[:len(p.log)], p.log) {
		return dynamic.Project(p.in, log[len(p.log):])
	}
	return dynamic.Project(base, log)
}

// checkGrowth refuses a mutation log that takes an instance of n
// customers past maxCustomers (0: no limit) at any point, counting adds
// and cancels before any instance is derived: each add copies the
// distance matrix one row and column larger.
func checkGrowth(n int, log []dynamic.Mutation, maxCustomers int) error {
	if maxCustomers <= 0 {
		return nil
	}
	for i := range log {
		switch log[i].Op {
		case dynamic.AddCustomer:
			if n++; n > maxCustomers {
				return fmt.Errorf("%s would grow the instance to %d customers, over the service limit of %d",
					log[i].String(), n, maxCustomers)
			}
		case dynamic.CancelCustomer:
			n--
		}
	}
	return nil
}

// Mutate schedules a mutation batch as the anonymous tenant — the
// single-tenant API of older embedders. See MutateAs.
func (s *Service) Mutate(id string, epoch int, muts []dynamic.Mutation) (int, error) {
	return s.MutateAs(tenant.Anonymous, id, epoch, muts)
}

// MutateAs schedules a batch of instance mutations on a live job, on
// behalf of the calling tenant. epoch pins the batch to an explicit
// checkpoint barrier (a timed replay script, or recovery re-priming); 0
// lets the schedule pick the next barrier the run has not reached. The
// batch is validated against the projection of the job's base instance
// through the full mutation log (extending the previous batch's
// projection when it can) and journaled before it becomes visible
// to the run — atomically with the pinning, so a batch the run can
// observe is always both valid and durable. It returns the epoch the
// batch landed on.
//
// Admission runs before any of that: a shedding service refuses with
// ErrLoadShed, a caller whose mutate token bucket is empty with
// ErrRateLimited (both in a QuotaError carrying Retry-After — the
// mutation-storm shed), and a batch that would blow the job's lifetime
// mutation budget — the hard backstop, charged against the job owner's
// policy — with ErrMutationBudget. A shed batch is never journaled and
// never consumes budget, so the run's mutation log stays exactly the
// accepted prefix.
func (s *Service) MutateAs(caller, id string, epoch int, muts []dynamic.Mutation) (int, error) {
	j, ok := s.Job(id)
	if !ok {
		return 0, ErrNotFound
	}
	if j.dyn == nil {
		return 0, ErrNotDynamic
	}
	if j.State().Terminal() {
		return 0, ErrTerminal
	}
	if s.shedding() {
		s.met.rejectTenant(caller, "load_shed")
		return 0, &QuotaError{Err: ErrLoadShed, After: s.cfg.RetryAfter}
	}
	if ok, retry := s.cfg.Tenants.TakeMutate(caller); !ok {
		s.met.rejectTenant(caller, "mutate_rate_limited")
		return 0, &QuotaError{Err: ErrRateLimited, After: retry}
	}
	// Reserve the batch against the job's lifetime budget before the
	// commit; a failed commit refunds it. The budget is the job owner's,
	// not the caller's: it bounds how much re-splicing one job can ever
	// absorb regardless of who feeds it.
	budget := s.cfg.Tenants.Policy(j.Spec.Tenant).MutationBudget
	if budget > 0 {
		j.mu.Lock()
		if j.mutScheduled+len(muts) > budget {
			j.mu.Unlock()
			s.met.rejectTenant(caller, "mutation_budget")
			return 0, fmt.Errorf("%w (%d of %d used)", ErrMutationBudget, j.mutScheduled, budget)
		}
		j.mutScheduled += len(muts)
		j.mu.Unlock()
	}
	committed, err := j.dyn.AddFunc(epoch, muts, func(e int, log []dynamic.Mutation) error {
		// The job may have turned terminal since the gate above, dropping
		// its instance: re-check under the lock that guards both.
		j.mu.Lock()
		in, proj, terminal := j.in, j.proj, j.state.Terminal()
		j.mu.Unlock()
		if terminal {
			return ErrTerminal
		}
		if err := checkGrowth(in.N(), log, s.cfg.MaxCustomers); err != nil {
			return err
		}
		projected, err := proj.extend(in, log)
		if err != nil {
			return fmt.Errorf("mutation batch does not apply: %w", err)
		}
		if s.jl != nil {
			if err := s.jl.append(journalRecord{Type: "mutate", Job: j.ID, Barrier: e, Muts: muts}); err != nil {
				return fmt.Errorf("%w: %v", ErrStorage, err)
			}
		}
		j.mu.Lock()
		if !j.state.Terminal() {
			j.proj = projection{log: log, in: projected}
		}
		j.mu.Unlock()
		return nil
	})
	if err != nil {
		if budget > 0 {
			j.mu.Lock()
			j.mutScheduled -= len(muts) // refund the reservation
			j.mu.Unlock()
		}
		if errors.Is(err, ErrStorage) {
			// The WAL refused the mutate record: shed for one window so
			// the disk gets quiet time, like the submission path does.
			s.armShed()
		}
		return 0, err
	}
	// A batch accepted just before the job turned terminal will never be
	// applied; that is harmless — it was journaled, but recovery drops
	// mutate records for terminal jobs during compaction.
	j.emit(telemetry.Record{Kind: "mutation_scheduled", Values: map[string]any{
		"job": j.ID, "epoch": committed, "mutations": len(muts),
	}})
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info("mutations scheduled", "job", j.ID, "epoch", committed, "mutations", len(muts))
	}
	return committed, nil
}
