package dynamic

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/pareto"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// Schedule is the mutation log of one job: an ordered queue of mutation
// batches, each pinned to a checkpoint-barrier epoch. It implements
// core.MutationSource — the run's coordinator polls HaltAt once per
// barrier and calls Apply when the run has halted on one.
//
// Epoch pinning is what makes a live PATCH deterministic: Add pins the
// batch to the first barrier not yet polled, so re-running the job from
// (seed, mutation log) — with AddAt priming the same epochs — replays the
// exact trajectory. All methods are safe for concurrent use; the service
// calls Add from HTTP handlers while the run polls HaltAt.
type Schedule struct {
	// Telemetry receives the dynamic-subsystem counters; nil is fine.
	Telemetry *telemetry.Telemetry
	// OnApplied, when set, observes every applied epoch's report (called
	// from the run's process, after the splice and before the warm
	// restart).
	OnApplied func(Report)

	mu      sync.Mutex
	hwm     int                // highest barrier HaltAt has been polled for
	queue   map[int][]Mutation // pending batches by epoch
	log     []Mutation         // every accepted mutation, in application order
	reports []Report
}

// NewSchedule returns an empty mutation schedule.
func NewSchedule() *Schedule {
	return &Schedule{queue: make(map[int][]Mutation)}
}

// ErrEpochPassed marks an AddAt/AddFunc refusal because the requested
// epoch is at or below the last barrier the run already polled.
var ErrEpochPassed = errors.New("dynamic: mutation epoch already passed")

// AddAt queues a batch at an explicit epoch (a barrier number). Used by
// timed replay scripts and by recovery, which re-primes journaled
// mutations at their original epochs. The epoch must still be ahead of
// the run: batches at or below the last polled barrier are refused
// with ErrEpochPassed.
func (sc *Schedule) AddAt(epoch int, muts []Mutation) error {
	if epoch < 1 {
		return fmt.Errorf("dynamic: mutation epoch must be >= 1, got %d", epoch)
	}
	_, err := sc.AddFunc(epoch, muts, nil)
	return err
}

// AddFunc pins a batch (at epoch, or the next unpolled barrier when
// epoch is 0) and, before the batch becomes visible to HaltAt, runs
// commit under the schedule lock with the chosen epoch and the full
// mutation log in application order — applied epochs, then every queued
// epoch ascending, with the new batch merged at its position. A commit
// error unpins the batch and is returned verbatim. This is the
// validate-and-journal hook: the caller projects the base instance
// through the log and durably records the batch atomically with the
// pinning, so a batch the run could observe is always both valid and
// journaled.
func (sc *Schedule) AddFunc(epoch int, muts []Mutation, commit func(epoch int, log []Mutation) error) (int, error) {
	if len(muts) == 0 {
		return 0, fmt.Errorf("dynamic: empty mutation batch")
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if epoch == 0 {
		epoch = sc.hwm + 1
	}
	if epoch < 1 {
		return 0, fmt.Errorf("dynamic: mutation epoch must be >= 1, got %d", epoch)
	}
	if epoch <= sc.hwm {
		return 0, fmt.Errorf("%w: epoch %d is at or below barrier %d", ErrEpochPassed, epoch, sc.hwm)
	}
	sc.queue[epoch] = append(sc.queue[epoch], muts...)
	if commit != nil {
		if err := commit(epoch, sc.logLocked()); err != nil {
			q := sc.queue[epoch][:len(sc.queue[epoch])-len(muts)]
			if len(q) == 0 {
				delete(sc.queue, epoch)
			} else {
				sc.queue[epoch] = q
			}
			return 0, err
		}
	}
	return epoch, nil
}

// Advance records that the run is already past barrier b without a
// HaltAt poll. Recovery uses it after restoring a checkpoint cut at b:
// folded-in mutations stay behind the high-water mark and re-primed
// later epochs stay ahead of it.
func (sc *Schedule) Advance(b int) {
	sc.mu.Lock()
	if b > sc.hwm {
		sc.hwm = b
	}
	sc.mu.Unlock()
}

// Pending returns the number of queued, not yet applied mutations.
func (sc *Schedule) Pending() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	n := 0
	for _, b := range sc.queue {
		n += len(b)
	}
	return n
}

// Log returns every mutation accepted so far (applied and queued), in
// application order: applied epochs first, then queued epochs ascending.
// Projecting the base instance through Log gives the instance an incoming
// batch must be validated against.
func (sc *Schedule) Log() []Mutation {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.logLocked()
}

// logLocked builds the application-order log. Callers hold mu.
func (sc *Schedule) logLocked() []Mutation {
	out := append([]Mutation(nil), sc.log...)
	for _, e := range sc.epochsLocked() {
		out = append(out, sc.queue[e]...)
	}
	return out
}

// Reports returns the reports of every applied epoch, oldest first.
func (sc *Schedule) Reports() []Report {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return append([]Report(nil), sc.reports...)
}

// epochsLocked lists the queued epochs in ascending order. Callers hold mu.
func (sc *Schedule) epochsLocked() []int {
	es := make([]int, 0, len(sc.queue))
	for e := range sc.queue {
		es = append(es, e)
	}
	sort.Ints(es)
	return es
}

// HaltAt implements core.MutationSource: it records that the run reached
// barrier b (advancing the epoch high-water mark, so later Adds pin past
// it) and reports whether a mutation epoch at or before b is pending. It
// keeps answering true until Apply consumes the batch, so a skipped
// barrier retries the halt at the next one.
func (sc *Schedule) HaltAt(b int) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if b > sc.hwm {
		sc.hwm = b
	}
	for e := range sc.queue {
		if e <= b {
			return true
		}
	}
	return false
}

// Apply implements core.MutationSource: it splices every pending batch
// with epoch <= ck.Barrier into a derived instance (in epoch order, each
// mutation validated against the projection of its predecessors — invalid
// ones are skipped and counted, never failing the run) and repairs the
// checkpoint's parts so every stored solution is complete and
// capacity-sane on the new instance. The returned checkpoint carries the
// new instance's digest; the run warm-restarts from it.
func (sc *Schedule) Apply(ctx context.Context, in *vrptw.Instance, ck *core.Checkpoint) (*vrptw.Instance, *core.Checkpoint, error) {
	start := time.Now()
	tr, parent := trace.FromContext(ctx)
	tel := sc.Telemetry

	sc.mu.Lock()
	var muts []Mutation
	for _, e := range sc.epochsLocked() {
		if e <= ck.Barrier {
			muts = append(muts, sc.queue[e]...)
			delete(sc.queue, e)
		}
	}
	sc.mu.Unlock()
	if len(muts) == 0 {
		return nil, nil, fmt.Errorf("dynamic: apply at barrier %d with no pending mutations", ck.Barrier)
	}

	rep := Report{Epoch: ck.Barrier}

	// Splice: derive the mutated instance, composing the site remap and
	// tracking added customers through later removals.
	ssp := tr.Start(parent, "splice").SetInt("mutations", int64(len(muts)))
	cur := in
	remap := make([]int, len(in.Sites))
	for i := range remap {
		remap[i] = i
	}
	var added []int
	var applied []Mutation
	for i := range muts {
		d, removed, add, err := muts[i].apply(cur)
		if err != nil {
			// Skipping (not failing) keeps the run alive under racy input:
			// a cancel for a customer another batch already cancelled, say.
			rep.Rejected++
			tel.Inc(telemetry.MutationsRejected)
			continue
		}
		cur = d
		if removed >= 0 {
			compose(remap, removed)
			added = composeAdded(added, removed)
		}
		if add >= 0 {
			added = append(added, add)
		}
		applied = append(applied, muts[i])
		rep.Applied++
	}
	ssp.End()
	if rep.Applied == 0 {
		// Every mutation of the epoch was invalid: the instance is
		// unchanged and the checkpoint resumes as-is — the halt still
		// consumed the epoch, so the run simply warm-restarts in place.
		sc.finish(&rep, applied, start)
		return in, ck, nil
	}
	tel.Add(telemetry.MutationsApplied, rep.Applied)

	// Repair: patch every part's stored solutions onto the new instance.
	psp := tr.Start(parent, "repair").SetInt("parts", int64(len(ck.Parts)))
	parts := make([]*core.SearcherState, len(ck.Parts))
	for i, part := range ck.Parts {
		parts[i] = sc.repairPart(cur, part, remap, added, &rep)
	}
	psp.End()

	nck := *ck
	nck.Parts = parts
	nck.InstanceDigest = core.InstanceDigest(cur)

	tel.Add(telemetry.Orphans, rep.Orphans)
	tel.Add(telemetry.Invalidated, rep.Invalidated)
	tel.Add(telemetry.PendingDropped, rep.PendingDropped)
	sc.finish(&rep, applied, start)
	return cur, &nck, nil
}

// finish stamps the report's wall time, records it, and fires the hook.
func (sc *Schedule) finish(rep *Report, applied []Mutation, start time.Time) {
	rep.Seconds = time.Since(start).Seconds()
	if tel := sc.Telemetry; tel != nil {
		tel.AddFloat(telemetry.SpliceSeconds, rep.Seconds)
		tel.SpliceNanos.Observe(int64(rep.Seconds * 1e9))
	}
	sc.mu.Lock()
	sc.log = append(sc.log, applied...)
	sc.reports = append(sc.reports, *rep)
	sc.mu.Unlock()
	if sc.OnApplied != nil {
		sc.OnApplied(*rep)
	}
}

// repairPart returns a repaired copy of one checkpoint part: cancelled
// customers dropped, new arrivals inserted, overloaded routes rebalanced,
// dominated archive members re-filtered, pending candidates discarded.
// Search-trajectory state (RNG, tabu list, counters, sharing state,
// runtime snapshot) is kept verbatim — stale tabu attributes age out
// deterministically and are documented behavior.
func (sc *Schedule) repairPart(in *vrptw.Instance, part *core.SearcherState, remap, added []int, rep *Report) *core.SearcherState {
	st := *part
	if st.Worker {
		return &st // workers are stateless between chunks
	}
	if len(st.Pending) > 0 {
		// Pending candidates were delta-evaluated against the old
		// instance; there is no sound way to patch their objectives.
		rep.PendingDropped += len(st.Pending)
		st.Pending = nil
	}
	if st.Cur != nil {
		st.Cur, _ = sc.repairRoutes(in, st.Cur, remap, added, rep)
	}
	st.Nondom = sc.repairFront(in, st.Nondom, remap, added, rep)
	st.Archive = sc.repairFront(in, st.Archive, remap, added, rep)
	if len(st.ShareOut) > 0 {
		out := make([][][]int, len(st.ShareOut))
		for i, r := range st.ShareOut {
			out[i], _ = sc.repairRoutes(in, r, remap, added, rep)
		}
		st.ShareOut = out
	}
	return &st
}

// repairFront repairs every member of an archive's route lists and drops
// the ones its repaired neighbors dominate, preserving order. Dropped and
// patched members count as invalidated.
func (sc *Schedule) repairFront(in *vrptw.Instance, front [][][]int, remap, added []int, rep *Report) [][][]int {
	if len(front) == 0 {
		return front
	}
	repaired := make([][][]int, len(front))
	objs := make([]solution.Objectives, len(front))
	touched := make([]bool, len(front))
	for i, r := range front {
		repaired[i], touched[i] = sc.repairRoutes(in, r, remap, added, rep)
		if touched[i] {
			rep.Invalidated++
		}
		objs[i] = solution.New(in, repaired[i]).Obj
	}
	keep := pareto.NondominatedIndices(objs)
	if len(keep) == len(front) {
		return repaired
	}
	kept := make([]bool, len(front))
	for _, i := range keep {
		kept[i] = true
	}
	out := make([][][]int, 0, len(keep))
	for i := range front {
		if kept[i] {
			out = append(out, repaired[i])
		} else if !touched[i] {
			rep.Invalidated++ // dropped without being patched: newly dominated
		}
	}
	return out
}

// repairRoutes maps one solution's routes onto the mutated instance:
// remap surviving customers, drop cancelled ones and emptied routes,
// eject customers from overloaded routes (largest demand first, ties to
// the earliest position), and greedily re-insert the orphans — the new
// arrivals plus the ejections — in ascending customer order. changed
// reports whether anything beyond sharing the old slices happened.
func (sc *Schedule) repairRoutes(in *vrptw.Instance, routes [][]int, remap, added []int, rep *Report) (out [][]int, changed bool) {
	out = make([][]int, 0, len(routes))
	for _, route := range routes {
		nr := make([]int, 0, len(route))
		for _, c := range route {
			nc := c
			if c < len(remap) {
				nc = remap[c]
			}
			if nc < 0 {
				changed = true
				continue
			}
			if nc != c {
				changed = true
			}
			nr = append(nr, nc)
		}
		if len(nr) == 0 {
			changed = true
			continue
		}
		out = append(out, nr)
	}

	var orphans []int
	for ri := 0; ri < len(out); ri++ {
		for {
			var load float64
			for _, c := range out[ri] {
				load += in.Sites[c].Demand
			}
			if load <= in.Capacity {
				break
			}
			ej := 0
			for pos, c := range out[ri] {
				if in.Sites[c].Demand > in.Sites[out[ri][ej]].Demand {
					ej = pos
				}
			}
			orphans = append(orphans, out[ri][ej])
			out[ri] = append(append([]int(nil), out[ri][:ej]...), out[ri][ej+1:]...)
			changed = true
			if len(out[ri]) == 0 {
				out = append(out[:ri], out[ri+1:]...)
				ri--
				break
			}
		}
	}

	orphans = append(orphans, added...)
	sort.Ints(orphans)
	for _, u := range orphans {
		out, _ = construct.Reinsert(in, out, u)
		changed = true
	}
	rep.Orphans += len(orphans)
	return out, changed
}

// shifted returns the index customer c takes once customer removed is
// cancelled: -1 for removed itself, one less past it, c otherwise (the
// depot, and -1 for a customer already cancelled).
func shifted(c, removed int) int {
	switch {
	case c == removed:
		return -1
	case c > removed:
		return c - 1
	}
	return c
}

// compose folds the cancellation of customer removed into the running
// old-index → new-index map.
func compose(remap []int, removed int) {
	for i, c := range remap {
		remap[i] = shifted(c, removed)
	}
}

// composeAdded shifts the tracked indices of batch-added customers past
// the cancellation of customer removed, dropping an added customer that a
// later mutation of the same apply cancelled.
func composeAdded(added []int, removed int) []int {
	out := added[:0]
	for _, a := range added {
		if a = shifted(a, removed); a >= 0 {
			out = append(out, a)
		}
	}
	return out
}
