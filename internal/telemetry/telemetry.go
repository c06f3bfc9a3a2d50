// Package telemetry is the search's near-zero-overhead observability
// layer: one table of atomic counters keyed by CounterID (searcher, async
// decision function, workers, share traffic, archives, delta evaluation,
// faults, checkpoints, mutations), a few float accumulators, a per-operator
// funnel indexed by move kind and lock-free exponential histograms, plus a
// structured slog event stream and a JSONL run-report writer.
//
// The disabled path costs nothing measurable: a nil *Telemetry disables
// every instrument, and the inlinable recording methods (Inc, Add,
// AddFloat, IncOp) nil-check it, so an uninstrumented run pays exactly one
// predictable branch per call site and zero allocations (enforced by the
// zero-alloc tests; the enabled layer's cost is scripts/tsmobench's
// telemetry.overhead_pct on the seq-r1-400 solve). Instruments are safe
// for concurrent use by all processes of a run; events are typed values
// (events.go), built only when a sink is attached.
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

// Counter returns the ID of the counter of firings for the reason.
func (d DecisionReason) Counter() CounterID { return FiresIdleWorker + CounterID(d) }

// AsyncStats holds the asynchronous master's two histograms: the size of
// the candidate set each step proceeded with, and how long the master
// waited for it.
type AsyncStats struct {
	PartialSizes Histogram // candidate-set size at each step
	WaitSeconds  Histogram // per-iteration master wait, in ns (virtual or wall)
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

// Telemetry aggregates every instrument of one run — the counter table
// (counters.go), the histograms and the per-peer share table — plus the
// optional event sinks (a slog logger and a JSONL writer). A nil
// *Telemetry is the disabled layer: every recording call is a no-op and
// every event is dropped, at the cost of one branch per call site.
type Telemetry struct {
	counters [numCounters]Counter
	floats   [numFloats]FloatCounter
	ops      [OpKinds]opRow

	Async       AsyncStats
	SpliceNanos Histogram // per-mutation splice+repair latency (ns)
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
