// Package telemetry is the search's near-zero-overhead observability
// layer: atomic counters, float accumulators and lock-free exponential
// histograms grouped per subsystem (searcher, async decision function,
// workers, share traffic, archives, delta evaluation), plus a structured
// slog event stream and a JSONL run-report writer.
//
// The disabled path costs nothing measurable: a nil *Telemetry disables
// every instrument, and each recording method nil-checks its group
// receiver, so an uninstrumented run pays exactly one predictable branch
// per call site and zero allocations (enforced by the zero-alloc tests; the
// enabled layer's cost is scripts/tsmobench's telemetry.overhead_pct on
// the seq-r1-400 solve). Instruments
// are safe for concurrent use by all processes of a run; events are
// typed values (events.go), built only when a sink is attached.
package telemetry

import (
	"io"
	"log/slog"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// FloatCounter accumulates float64 values atomically (CAS loop on the
// bit pattern). Used for idle/busy time, which is fractional seconds on
// both the simulated and the wall clock.
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates v.
func (f *FloatCounter) Add(v float64) {
	for {
		old := f.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Load returns the accumulated value.
func (f *FloatCounter) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// histBuckets is the number of exponential histogram buckets: bucket k
// holds observations v with bits.Len64(v) == k, i.e. 2^(k-1) <= v < 2^k
// (bucket 0 holds v <= 0).
const histBuckets = 65

// Histogram is a lock-free histogram with power-of-two buckets. Observe is
// wait-free (two atomic adds plus one bounded CAS loop for the max).
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	k := 0
	if v > 0 {
		k = bits.Len64(uint64(v))
	}
	h.buckets[k].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// ObserveSeconds records a duration given in (possibly virtual) seconds,
// stored with nanosecond resolution.
func (h *Histogram) ObserveSeconds(s float64) { h.Observe(int64(s * 1e9)) }

// HistogramBucket is one non-empty histogram bucket with its explicit
// upper bound, so downstream quantile math needs no knowledge of the
// power-of-two bucketing scheme. Upper is the exclusive bound 2^k of the
// bucket holding 2^(k-1) <= v < 2^k, with two sentinels: Upper == 0 is
// the inclusive v <= 0 bucket, and Upper == math.MaxInt64 is the overflow
// bucket for values with no in-range power-of-two bound.
type HistogramBucket struct {
	Upper int64 `json:"upper"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram, JSON-ready.
type HistogramSnapshot struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	Max   int64   `json:"max"`
	// Buckets lists the non-empty buckets in increasing Upper order.
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot returns a consistent-enough copy for reporting.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for k := range h.buckets {
		n := h.buckets[k].Load()
		if n == 0 {
			continue
		}
		s.Buckets = append(s.Buckets, HistogramBucket{Upper: bucketUpper(k), Count: n})
	}
	return s
}

// bucketUpper maps a bucket index to its explicit upper bound.
func bucketUpper(k int) int64 {
	if k == 0 {
		return 0
	}
	if k >= 63 {
		return math.MaxInt64
	}
	return int64(1) << k
}

// SearchStats instruments one run's searchers (Algorithm 1): iteration and
// evaluation counts, the two restart triggers, medium-term-memory
// consumption, and tabu-list dynamics. Shared by all processes of a run.
type SearchStats struct {
	Iterations      Counter // selection steps performed
	Evaluations     Counter // delta/full objective evaluations observed
	RestartsNoCand  Counter // restarts from the "s ∉ N" trigger (empty admissible set)
	RestartsStagn   Counter // restarts from the stagnation trigger (RestartIterations without archive improvement)
	NondomConsumed  Counter // M_nondom entries consumed (the paper's ↓↑)
	TabuRejected    Counter // candidates rejected by the tabu list
	AspirationFires Counter // tabu candidates admitted by archive aspiration
}

// Iteration counts one selection step.
func (s *SearchStats) Iteration() {
	if s == nil {
		return
	}
	s.Iterations.Inc()
}

// Evals counts n objective evaluations.
func (s *SearchStats) Evals(n int) {
	if s == nil {
		return
	}
	s.Evaluations.Add(int64(n))
}

// Restart counts one restart: noCandidate distinguishes the "s ∉ N"
// trigger from the stagnation trigger; consumed is the number of M_nondom
// entries the restart removed.
func (s *SearchStats) Restart(noCandidate bool, consumed int) {
	if s == nil {
		return
	}
	if noCandidate {
		s.RestartsNoCand.Inc()
	} else {
		s.RestartsStagn.Inc()
	}
	s.NondomConsumed.Add(int64(consumed))
}

// TabuReject counts one candidate forbidden by the tabu list.
func (s *SearchStats) TabuReject() {
	if s == nil {
		return
	}
	s.TabuRejected.Inc()
}

// Aspiration counts one tabu candidate admitted because it would enter the
// archive.
func (s *SearchStats) Aspiration() {
	if s == nil {
		return
	}
	s.AspirationFires.Inc()
}

// DecisionReason labels why the asynchronous master's decision function
// (Algorithm 2) stopped waiting for worker results.
type DecisionReason int

// The decision-function conditions, in the paper's order.
const (
	FireIdleWorker DecisionReason = iota // c1: a worker ran out of work
	FireDominating                       // c2: a collected candidate dominates the current solution
	FireTimeout                          // c3: waited longer than WaitTimeout
	FireBudget                           // c4: the evaluation budget ran out
)

var decisionNames = [...]string{"idle_worker", "dominating_candidate", "timeout", "budget_exhausted"}

// String returns the snake_case reason name used in reports.
func (d DecisionReason) String() string {
	if d < 0 || int(d) >= len(decisionNames) {
		return "unknown"
	}
	return decisionNames[d]
}

// AsyncStats instruments the asynchronous master–worker variant: per-reason
// decision-function firings, the size of the partial neighborhoods the
// master proceeds with, late candidates (born in an earlier iteration than
// the one that considered them — the paper's Figure 1 phenomenon), and the
// virtual/wall time spent waiting per iteration.
type AsyncStats struct {
	Fires          [len(decisionNames)]Counter
	PartialSizes   Histogram // candidate-set size at each step
	LateCandidates Counter   // candidates considered in a later iteration than they were born
	WaitSeconds    Histogram // per-iteration master wait, in ns (virtual or wall)
}

// Fire counts one decision-function firing for the given reason.
func (a *AsyncStats) Fire(reason DecisionReason) {
	if a == nil {
		return
	}
	a.Fires[reason].Inc()
}

// Step records the candidate set a master iteration proceeded with: its
// size, how many members were late, and how long the master waited.
func (a *AsyncStats) Step(size, late int, waitSeconds float64) {
	if a == nil {
		return
	}
	a.PartialSizes.Observe(int64(size))
	a.LateCandidates.Add(int64(late))
	a.WaitSeconds.ObserveSeconds(waitSeconds)
}

// WorkerStats instruments the worker loops of the master–worker variants.
type WorkerStats struct {
	Chunks      Counter      // work messages served
	Candidates  Counter      // candidates evaluated by workers
	IdleSeconds FloatCounter // time blocked waiting for work
	BusySeconds FloatCounter // time generating and evaluating candidates
}

// Chunk records one served work chunk of n candidates together with the
// idle time that preceded it and the busy time it took.
func (w *WorkerStats) Chunk(n int, idle, busy float64) {
	if w == nil {
		return
	}
	w.Chunks.Inc()
	w.Candidates.Add(int64(n))
	w.IdleSeconds.Add(idle)
	w.BusySeconds.Add(busy)
}

// ShareStats instruments the collaborative share traffic.
type ShareStats struct {
	Sent     Counter // share messages sent
	Accepted Counter // received shares accepted into M_nondom
	Rejected Counter // received shares dominated on arrival
}

// SendN counts n sent share messages.
func (s *ShareStats) SendN(n int) {
	if s == nil {
		return
	}
	s.Sent.Add(int64(n))
}

// Received counts one received share and whether M_nondom accepted it.
func (s *ShareStats) Received(accepted bool) {
	if s == nil {
		return
	}
	if accepted {
		s.Accepted.Inc()
	} else {
		s.Rejected.Inc()
	}
}

// PeerShareStats instruments the cross-node share traffic received from
// one sibling shard of a cluster-share group.
type PeerShareStats struct {
	Batches   Counter // epoch batches received from this peer
	Solutions Counter // solutions carried by those batches
	Malformed Counter // frames from this peer that failed to decode
}

// Batch counts one received batch carrying n solutions.
func (p *PeerShareStats) Batch(n int) {
	if p == nil {
		return
	}
	p.Batches.Inc()
	p.Solutions.Add(int64(n))
}

// Bad counts one undecodable frame.
func (p *PeerShareStats) Bad() {
	if p == nil {
		return
	}
	p.Malformed.Inc()
}

// PeerShareTable maps peer labels ("shard-2", or a node address) to their
// PeerShareStats, lock-free on the hit path.
type PeerShareTable struct{ m sync.Map }

// Get returns the stats for the named peer, creating them on first use.
// It returns nil on a nil table.
func (t *PeerShareTable) Get(peer string) *PeerShareStats {
	if t == nil {
		return nil
	}
	if v, ok := t.m.Load(peer); ok {
		return v.(*PeerShareStats)
	}
	v, _ := t.m.LoadOrStore(peer, &PeerShareStats{})
	return v.(*PeerShareStats)
}

// Snapshot returns the per-peer counters.
func (t *PeerShareTable) Snapshot() map[string]map[string]int64 {
	if t == nil {
		return nil
	}
	out := make(map[string]map[string]int64)
	t.m.Range(func(k, v any) bool {
		p := v.(*PeerShareStats)
		out[k.(string)] = map[string]int64{
			"batches":   p.Batches.Load(),
			"solutions": p.Solutions.Load(),
			"malformed": p.Malformed.Load(),
		}
		return true
	})
	return out
}

// ArchiveStats instruments one class of bounded non-dominated store
// (M_archive or M_nondom, aggregated over all processes).
type ArchiveStats struct {
	Accepts   Counter // offers that ended up stored
	Rejects   Counter // offers weakly dominated (or evicted straight back out)
	Evictions Counter // crowding-distance evictions on overflow
}

// Accept counts one stored offer.
func (a *ArchiveStats) Accept() {
	if a == nil {
		return
	}
	a.Accepts.Inc()
}

// Reject counts one dominated (or bounced) offer.
func (a *ArchiveStats) Reject() {
	if a == nil {
		return
	}
	a.Rejects.Inc()
}

// Evict counts one crowding eviction.
func (a *ArchiveStats) Evict() {
	if a == nil {
		return
	}
	a.Evictions.Inc()
}

// DeltaStats splits candidate evaluation between the O(1)-ish delta
// fast path and the full Apply simulation fallback.
type DeltaStats struct {
	DeltaFast     Counter // Move.Delta succeeded (schedule-cache splice)
	ApplyFallback Counter // Move.Delta declined; full materialization used
}

// Fast counts one delta-evaluated candidate.
func (d *DeltaStats) Fast() {
	if d == nil {
		return
	}
	d.DeltaFast.Inc()
}

// Fallback counts one full-simulation fallback.
func (d *DeltaStats) Fallback() {
	if d == nil {
		return
	}
	d.ApplyFallback.Inc()
}

// SpliceStats classifies the exits of solution.Eval.SpliceMetrics — the
// innermost hot function of the search. PrefixFolds and the two suffix
// shortcuts are the cheap exits; FullWalks are splices that simulated every
// customer of their segments.
type SpliceStats struct {
	Calls            Counter // SpliceMetrics invocations
	PrefixFolds      Counter // leading cached prefix folded in O(1)
	SuffixEarlyExits Counter // trailing suffix proved tardiness-free (Latest bound)
	SuffixResyncs    Counter // trailing suffix resynchronized with the cached schedule
	FullWalks        Counter // no suffix shortcut applied; every segment customer simulated
}

// Call counts one SpliceMetrics invocation.
func (s *SpliceStats) Call() {
	if s == nil {
		return
	}
	s.Calls.Inc()
}

// PrefixFold counts one O(1) prefix fold.
func (s *SpliceStats) PrefixFold() {
	if s == nil {
		return
	}
	s.PrefixFolds.Inc()
}

// SuffixEarlyExit counts one tardiness-free suffix termination.
func (s *SpliceStats) SuffixEarlyExit() {
	if s == nil {
		return
	}
	s.SuffixEarlyExits.Inc()
}

// SuffixResync counts one schedule resynchronization exit.
func (s *SpliceStats) SuffixResync() {
	if s == nil {
		return
	}
	s.SuffixResyncs.Inc()
}

// FullWalk counts one splice that simulated all of its segments.
func (s *SpliceStats) FullWalk() {
	if s == nil {
		return
	}
	s.FullWalks.Inc()
}

// FaultStats instruments the fault-injection runtime (deme.Faulty) and the
// self-healing reactions of the parallel variants. The injection counters
// record faults as they fire; the recovery counters record how the masters
// and searchers absorbed them (timeouts, local re-evaluation of lost
// chunks, evictions of persistently silent workers, iterations run with a
// reduced worker set).
type FaultStats struct {
	// Injection side (deme.Faulty).
	MsgsDropped    Counter // incoming messages silently discarded
	MsgsDuplicated Counter // incoming messages delivered twice
	MsgsDelayed    Counter // incoming messages held back
	Crashes        Counter // processes terminated by a crash-at-time fault
	Stalls         Counter // stall windows served

	// Recovery side (core masters and searchers).
	RecvTimeouts    Counter // receive deadlines that expired on a master
	Redispatches    Counter // work chunks re-evaluated after a silent worker
	StaleResults    Counter // results discarded as duplicate or out-of-iteration
	WorkerEvictions Counter // workers removed after persistent silence or death
	WorkerRevivals  Counter // evicted workers re-admitted after a late result
	PeerDrops       Counter // dead peers removed from a share ring
	DegradedIters   Counter // master iterations run with a reduced worker set
	MalformedMsgs   Counter // payloads that failed their type assertion
}

// Dropped counts one discarded incoming message.
func (f *FaultStats) Dropped() {
	if f == nil {
		return
	}
	f.MsgsDropped.Inc()
}

// Duplicated counts one duplicated incoming message.
func (f *FaultStats) Duplicated() {
	if f == nil {
		return
	}
	f.MsgsDuplicated.Inc()
}

// Delayed counts one delayed incoming message.
func (f *FaultStats) Delayed() {
	if f == nil {
		return
	}
	f.MsgsDelayed.Inc()
}

// Crashed counts one crash-at-time firing.
func (f *FaultStats) Crashed() {
	if f == nil {
		return
	}
	f.Crashes.Inc()
}

// Stalled counts one served stall window.
func (f *FaultStats) Stalled() {
	if f == nil {
		return
	}
	f.Stalls.Inc()
}

// RecvTimeout counts one expired receive deadline.
func (f *FaultStats) RecvTimeout() {
	if f == nil {
		return
	}
	f.RecvTimeouts.Inc()
}

// Redispatch counts one locally re-evaluated work chunk.
func (f *FaultStats) Redispatch() {
	if f == nil {
		return
	}
	f.Redispatches.Inc()
}

// Stale counts one discarded duplicate or out-of-iteration result.
func (f *FaultStats) Stale() {
	if f == nil {
		return
	}
	f.StaleResults.Inc()
}

// Evicted counts one worker eviction.
func (f *FaultStats) Evicted() {
	if f == nil {
		return
	}
	f.WorkerEvictions.Inc()
}

// Revived counts one re-admitted worker.
func (f *FaultStats) Revived() {
	if f == nil {
		return
	}
	f.WorkerRevivals.Inc()
}

// PeerDrop counts one peer removed from a share ring.
func (f *FaultStats) PeerDrop() {
	if f == nil {
		return
	}
	f.PeerDrops.Inc()
}

// DegradedIteration counts one master iteration with a reduced worker set.
func (f *FaultStats) DegradedIteration() {
	if f == nil {
		return
	}
	f.DegradedIters.Inc()
}

// Malformed counts one payload that failed its type assertion.
func (f *FaultStats) Malformed() {
	if f == nil {
		return
	}
	f.MalformedMsgs.Inc()
}

// CheckpointStats instruments the durability layer: periodic search-state
// snapshots taken by the checkpoint barriers of internal/core and the
// resume/recovery paths that consume them. All methods are nil-safe, so a
// disabled layer costs one branch per site.
type CheckpointStats struct {
	Snapshots   Counter      // checkpoints assembled and handed to the sink
	SinkErrors  Counter      // sink rejections (the run continues regardless)
	Skipped     Counter      // barriers abandoned with incomplete parts
	Resumes     Counter      // runs restored from a checkpoint
	BarrierSecs FloatCounter // modeled seconds spent quiescing at barriers
}

// Snapshot counts one checkpoint handed to the sink.
func (c *CheckpointStats) Snapshot() {
	if c == nil {
		return
	}
	c.Snapshots.Inc()
}

// SinkError counts one checkpoint the sink failed to persist.
func (c *CheckpointStats) SinkError() {
	if c == nil {
		return
	}
	c.SinkErrors.Inc()
}

// Skip counts one barrier abandoned because a process part was missing.
func (c *CheckpointStats) Skip() {
	if c == nil {
		return
	}
	c.Skipped.Inc()
}

// Resumed counts one run restored from a checkpoint.
func (c *CheckpointStats) Resumed() {
	if c == nil {
		return
	}
	c.Resumes.Inc()
}

// Barrier accounts the modeled time one process spent inside a
// checkpoint barrier.
func (c *CheckpointStats) Barrier(seconds float64) {
	if c == nil {
		return
	}
	c.BarrierSecs.Add(seconds)
}

// DynamicStats instruments the dynamic (online) subsystem: live instance
// mutations, the incremental splice/repair they trigger, and the warm
// restarts that resume the interrupted search segments. All methods are
// nil-safe, so a disabled layer costs one branch per site.
type DynamicStats struct {
	Applied        Counter      // mutations validated and spliced into a run
	Rejected       Counter      // mutations refused by validation
	Orphans        Counter      // customers greedily re-inserted during repair
	Invalidated    Counter      // archived solutions dropped or patched by repair
	PendingDropped Counter      // async pending candidates discarded at a mutation barrier
	WarmRestarts   Counter      // search segments resumed after a mutation
	SpliceSeconds  FloatCounter // wall seconds spent in splice+repair
	SpliceNanos    Histogram    // per-mutation splice+repair latency (ns)
}

// Apply counts n mutations spliced into a run.
func (d *DynamicStats) Apply(n int) {
	if d == nil {
		return
	}
	d.Applied.Add(int64(n))
}

// Reject counts one mutation refused by validation.
func (d *DynamicStats) Reject() {
	if d == nil {
		return
	}
	d.Rejected.Inc()
}

// Orphan counts n customers re-inserted by the repair pass.
func (d *DynamicStats) Orphan(n int) {
	if d == nil {
		return
	}
	d.Orphans.Add(int64(n))
}

// Invalidate counts n archived solutions dropped or patched by repair.
func (d *DynamicStats) Invalidate(n int) {
	if d == nil {
		return
	}
	d.Invalidated.Add(int64(n))
}

// DropPending counts n async candidates discarded at a mutation barrier.
func (d *DynamicStats) DropPending(n int) {
	if d == nil {
		return
	}
	d.PendingDropped.Add(int64(n))
}

// WarmRestart counts one search segment resumed after a mutation.
func (d *DynamicStats) WarmRestart() {
	if d == nil {
		return
	}
	d.WarmRestarts.Inc()
}

// Splice accounts one splice+repair pass's wall time.
func (d *DynamicStats) Splice(seconds float64) {
	if d == nil {
		return
	}
	d.SpliceSeconds.Add(seconds)
	d.SpliceNanos.Observe(int64(seconds * 1e9))
}

// OpStats tracks one neighborhood operator's funnel: proposals drawn,
// selections as the next current solution, and acceptances into the
// archive, plus two generation-side failure counters: Propose calls that
// exhausted their attempt budget without finding a feasible move, and
// granular proposals that fell back to the full-neighborhood path.
type OpStats struct {
	Proposed  Counter
	Selected  Counter
	Accepted  Counter
	Exhausted Counter // Propose returned no move within its attempt budget
	Fallbacks Counter // granular draw failed; full proposal path used instead
}

// Propose counts one proposal.
func (o *OpStats) Propose() {
	if o == nil {
		return
	}
	o.Proposed.Inc()
}

// Select counts one selection.
func (o *OpStats) Select() {
	if o == nil {
		return
	}
	o.Selected.Inc()
}

// Accept counts one archive acceptance.
func (o *OpStats) Accept() {
	if o == nil {
		return
	}
	o.Accepted.Inc()
}

// Exhaust counts one proposal-budget exhaustion.
func (o *OpStats) Exhaust() {
	if o == nil {
		return
	}
	o.Exhausted.Inc()
}

// Fallback counts one granular-list fallback to the full proposal path.
func (o *OpStats) Fallback() {
	if o == nil {
		return
	}
	o.Fallbacks.Inc()
}

// OpTable maps operator names to their OpStats, lock-free on the hit path.
type OpTable struct{ m sync.Map }

// Get returns the stats for the named operator, creating them on first
// use. It returns nil on a nil table, so chained calls like
// tel.Operators().Get(name).Propose() cost one branch when disabled.
func (t *OpTable) Get(name string) *OpStats {
	if t == nil {
		return nil
	}
	if v, ok := t.m.Load(name); ok {
		return v.(*OpStats)
	}
	v, _ := t.m.LoadOrStore(name, &OpStats{})
	return v.(*OpStats)
}

// Snapshot returns the per-operator funnel with derived rates.
func (t *OpTable) Snapshot() map[string]map[string]any {
	if t == nil {
		return nil
	}
	out := make(map[string]map[string]any)
	t.m.Range(func(k, v any) bool {
		o := v.(*OpStats)
		p, s, a := o.Proposed.Load(), o.Selected.Load(), o.Accepted.Load()
		e := map[string]any{
			"proposed":           p,
			"selected":           s,
			"accepted":           a,
			"exhausted":          o.Exhausted.Load(),
			"granular_fallbacks": o.Fallbacks.Load(),
		}
		if p > 0 {
			e["select_rate"] = float64(s) / float64(p)
			e["accept_rate"] = float64(a) / float64(p)
		}
		out[k.(string)] = e
		return true
	})
	return out
}

// Telemetry aggregates every instrument group of one run plus the optional
// event sinks (a slog logger and a JSONL writer). A nil *Telemetry is the
// disabled layer: every group accessor returns nil and every event is
// dropped, at the cost of one branch per call site.
type Telemetry struct {
	Search  SearchStats
	Async   AsyncStats
	Worker  WorkerStats
	Share   ShareStats
	Archive ArchiveStats // M_archive dynamics (all processes)
	Nondom  ArchiveStats // M_nondom dynamics (all processes)
	Delta   DeltaStats
	Splice  SpliceStats
	Fault   FaultStats
	Ckpt    CheckpointStats
	Dynamic DynamicStats
	Ops     OpTable
	// Peers breaks the cross-node share ingress down by sibling shard.
	Peers PeerShareTable

	log    *slog.Logger
	writer *Writer
	hook   EventHook
}

// EventHook receives every emitted event in-process, as its typed value
// (InitEvent, AcceptEvent, RestartEvent, DecisionEvent, SnapshotEvent or a
// Record). Hooks run on the emitting goroutine and must be safe for
// concurrent use; a hook that needs the wire fields renders them with
// ev.Render(). The solver service uses a hook to stream archive updates to
// HTTP subscribers as they happen.
type EventHook func(ev Event)

// New returns an enabled telemetry layer. logger and w may each be nil:
// events then skip that sink; the instruments record regardless.
func New(logger *slog.Logger, w *Writer) *Telemetry {
	return &Telemetry{log: logger, writer: w}
}

// SetHook installs h as the in-process event sink. It must be called
// before the instrumented run starts and is not safe to call concurrently
// with event emission.
func (t *Telemetry) SetHook(h EventHook) {
	if t == nil {
		return
	}
	t.hook = h
}

// Enabled reports whether the layer records anything.
func (t *Telemetry) Enabled() bool { return t != nil }

// Sinks reports whether any event sink (logger, JSONL writer, or hook) is
// attached. Every solver event is constructed only when this is true, so
// an instruments-only layer stays allocation-free on the hot path.
func (t *Telemetry) Sinks() bool {
	return t != nil && (t.log != nil || t.writer != nil || t.hook != nil)
}

// Logger returns the event logger, or a discarding logger when disabled,
// so callers can log unconditionally off the hot path.
func (t *Telemetry) Logger() *slog.Logger {
	if t == nil || t.log == nil {
		return discardLogger
	}
	return t.log
}

var discardLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))

// SearchGroup returns the searcher instruments (nil when disabled).
func (t *Telemetry) SearchGroup() *SearchStats {
	if t == nil {
		return nil
	}
	return &t.Search
}

// AsyncGroup returns the decision-function instruments (nil when disabled).
func (t *Telemetry) AsyncGroup() *AsyncStats {
	if t == nil {
		return nil
	}
	return &t.Async
}

// WorkerGroup returns the worker instruments (nil when disabled).
func (t *Telemetry) WorkerGroup() *WorkerStats {
	if t == nil {
		return nil
	}
	return &t.Worker
}

// PeerShares returns the per-peer cross-node share instruments (nil when
// disabled).
func (t *Telemetry) PeerShares() *PeerShareTable {
	if t == nil {
		return nil
	}
	return &t.Peers
}

// ShareGroup returns the share-traffic instruments (nil when disabled).
func (t *Telemetry) ShareGroup() *ShareStats {
	if t == nil {
		return nil
	}
	return &t.Share
}

// ArchiveGroup returns the M_archive instruments (nil when disabled).
func (t *Telemetry) ArchiveGroup() *ArchiveStats {
	if t == nil {
		return nil
	}
	return &t.Archive
}

// NondomGroup returns the M_nondom instruments (nil when disabled).
func (t *Telemetry) NondomGroup() *ArchiveStats {
	if t == nil {
		return nil
	}
	return &t.Nondom
}

// DeltaGroup returns the delta-vs-fallback instruments (nil when disabled).
func (t *Telemetry) DeltaGroup() *DeltaStats {
	if t == nil {
		return nil
	}
	return &t.Delta
}

// SpliceGroup returns the SpliceMetrics instruments (nil when disabled).
func (t *Telemetry) SpliceGroup() *SpliceStats {
	if t == nil {
		return nil
	}
	return &t.Splice
}

// FaultGroup returns the fault-injection and self-healing instruments (nil
// when disabled).
func (t *Telemetry) FaultGroup() *FaultStats {
	if t == nil {
		return nil
	}
	return &t.Fault
}

// CheckpointGroup returns the durability instruments (nil when disabled).
func (t *Telemetry) CheckpointGroup() *CheckpointStats {
	if t == nil {
		return nil
	}
	return &t.Ckpt
}

// DynamicGroup returns the dynamic-subsystem instruments (nil when
// disabled).
func (t *Telemetry) DynamicGroup() *DynamicStats {
	if t == nil {
		return nil
	}
	return &t.Dynamic
}

// Operators returns the per-operator funnel table (nil when disabled).
func (t *Telemetry) Operators() *OpTable {
	if t == nil {
		return nil
	}
	return &t.Ops
}

// Snapshot returns every instrument's current value in a JSON-ready tree —
// the payload of the run report's "summary" event, the expvar export and
// the /telemetry endpoint.
func (t *Telemetry) Snapshot() map[string]any {
	if t == nil {
		return nil
	}
	fires := make(map[string]int64, len(decisionNames))
	for i := range t.Async.Fires {
		fires[DecisionReason(i).String()] = t.Async.Fires[i].Load()
	}
	return map[string]any{
		"search": map[string]int64{
			"iterations":          t.Search.Iterations.Load(),
			"evaluations":         t.Search.Evaluations.Load(),
			"restarts_no_cand":    t.Search.RestartsNoCand.Load(),
			"restarts_stagnation": t.Search.RestartsStagn.Load(),
			"nondom_consumed":     t.Search.NondomConsumed.Load(),
			"tabu_rejected":       t.Search.TabuRejected.Load(),
			"aspiration_fires":    t.Search.AspirationFires.Load(),
		},
		"async": map[string]any{
			"decision_fires":  fires,
			"partial_sizes":   t.Async.PartialSizes.Snapshot(),
			"late_candidates": t.Async.LateCandidates.Load(),
			"wait_ns":         t.Async.WaitSeconds.Snapshot(),
		},
		"worker": map[string]any{
			"chunks":       t.Worker.Chunks.Load(),
			"candidates":   t.Worker.Candidates.Load(),
			"idle_seconds": t.Worker.IdleSeconds.Load(),
			"busy_seconds": t.Worker.BusySeconds.Load(),
		},
		"share": map[string]int64{
			"sent":     t.Share.Sent.Load(),
			"accepted": t.Share.Accepted.Load(),
			"rejected": t.Share.Rejected.Load(),
		},
		"peer_shares": t.Peers.Snapshot(),
		"archive": map[string]int64{
			"accepts":   t.Archive.Accepts.Load(),
			"rejects":   t.Archive.Rejects.Load(),
			"evictions": t.Archive.Evictions.Load(),
		},
		"nondom": map[string]int64{
			"accepts":   t.Nondom.Accepts.Load(),
			"rejects":   t.Nondom.Rejects.Load(),
			"evictions": t.Nondom.Evictions.Load(),
		},
		"delta": map[string]int64{
			"fast":           t.Delta.DeltaFast.Load(),
			"apply_fallback": t.Delta.ApplyFallback.Load(),
		},
		"splice": map[string]int64{
			"calls":              t.Splice.Calls.Load(),
			"prefix_folds":       t.Splice.PrefixFolds.Load(),
			"suffix_early_exits": t.Splice.SuffixEarlyExits.Load(),
			"suffix_resyncs":     t.Splice.SuffixResyncs.Load(),
			"full_walks":         t.Splice.FullWalks.Load(),
		},
		"faults": map[string]int64{
			"msgs_dropped":     t.Fault.MsgsDropped.Load(),
			"msgs_duplicated":  t.Fault.MsgsDuplicated.Load(),
			"msgs_delayed":     t.Fault.MsgsDelayed.Load(),
			"crashes":          t.Fault.Crashes.Load(),
			"stalls":           t.Fault.Stalls.Load(),
			"recv_timeouts":    t.Fault.RecvTimeouts.Load(),
			"redispatches":     t.Fault.Redispatches.Load(),
			"stale_results":    t.Fault.StaleResults.Load(),
			"worker_evictions": t.Fault.WorkerEvictions.Load(),
			"worker_revivals":  t.Fault.WorkerRevivals.Load(),
			"peer_drops":       t.Fault.PeerDrops.Load(),
			"degraded_iters":   t.Fault.DegradedIters.Load(),
			"malformed_msgs":   t.Fault.MalformedMsgs.Load(),
		},
		"checkpoint": map[string]any{
			"snapshots":       t.Ckpt.Snapshots.Load(),
			"sink_errors":     t.Ckpt.SinkErrors.Load(),
			"skipped":         t.Ckpt.Skipped.Load(),
			"resumes":         t.Ckpt.Resumes.Load(),
			"barrier_seconds": t.Ckpt.BarrierSecs.Load(),
		},
		"dynamic": map[string]any{
			"applied":         t.Dynamic.Applied.Load(),
			"rejected":        t.Dynamic.Rejected.Load(),
			"orphans":         t.Dynamic.Orphans.Load(),
			"invalidated":     t.Dynamic.Invalidated.Load(),
			"pending_dropped": t.Dynamic.PendingDropped.Load(),
			"warm_restarts":   t.Dynamic.WarmRestarts.Load(),
			"splice_seconds":  t.Dynamic.SpliceSeconds.Load(),
			"splice_ns":       t.Dynamic.SpliceNanos.Snapshot(),
		},
		"operators": t.Ops.Snapshot(),
	}
}
