package main

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/solution"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// The workloads, in the order "all" runs them.
const (
	wSeq    = "seq-r1-400"
	wAsync  = "async-r2-400"
	wSubmit = "svc-submit-400"
	wMutate = "svc-mutate-400"
)

var workloadNames = []string{wSeq, wAsync, wSubmit, wMutate}

// granularK is the neighbor-list size of the granular workloads (seq and
// both daemon workloads) and of the vrptw.neighbor_lists_ms fixture op.
const granularK = 20

// scale sizes every workload. fullScale is the benchmark; toyScale is the
// smoke test's, which runs the same code on small inputs.
type scale struct {
	N   int           // customers per generated instance
	Box time.Duration // measurement window of a workload's load

	Pool       int // seq: instances solved round-robin, one set-up each
	SolveEvals int // seq: evaluation budget of one solve
	MinSolves  int // seq: solves always run; core.front_hv and the digest cover them

	InstReps     int // async: instance set-ups timed; setup_s is their median
	SetupReps    int // svc-*: daemon set-ups timed per run; setup_s is their median
	JobEvals     int // svc-submit: evaluation budget of one job
	MinJobs      int // svc-submit: jobs always completed
	MinMutations int // svc-mutate: PATCHes always applied

	// Traced runs only.
	Reps           int           // repetitions of each fixture-timed op
	Pairs          int           // off/on pairs per observability overhead
	Fsyncs         int           // appends timed by disk.fsync_ms
	ProbeBox       time.Duration // async probe in the other workloads
	ProbeJobs      int           // svc-submit probe in the other workloads
	ProbeMutations int           // svc-mutate probe in the other workloads
}

func fullScale(seconds float64) scale {
	return scale{
		N: 400, Box: time.Duration(seconds * float64(time.Second)),
		Pool: 8, SolveEvals: 100_000, MinSolves: 16,
		InstReps: 11, SetupReps: 9, JobEvals: 20_000, MinJobs: 40, MinMutations: 20,
		Reps: 200, Pairs: 7, Fsyncs: 200,
		ProbeBox: 3 * time.Second, ProbeJobs: 8, ProbeMutations: 6,
	}
}

func toyScale() scale {
	return scale{
		N: 40, Box: 300 * time.Millisecond,
		Pool: 2, SolveEvals: 5_000, MinSolves: 2,
		InstReps: 1, SetupReps: 1, JobEvals: 2_000, MinJobs: 2, MinMutations: 4,
		Reps: 3, Pairs: 1, Fsyncs: 3,
		ProbeBox: 300 * time.Millisecond, ProbeJobs: 2, ProbeMutations: 2,
	}
}

// metric is one named value as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is an insertion-ordered set of metrics.
type report struct {
	names []string
	m     map[string]metric
}

func (r *report) add(name string, v float64, unit string) {
	if r.m == nil {
		r.m = make(map[string]metric)
	}
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
}

// bench is one workload run: its settings, its own span recording (nil
// when untraced), the three metric sets it fills, and its check tally.
type bench struct {
	name   string
	seed   uint64
	sc     scale
	traced bool
	out    string // scratch and export directory

	tr   *trace.Trace
	root *trace.Span

	e2e    report // end-to-end metrics: the result line of an untraced run
	info   report // workload-specific numbers, printed only
	layers report // per-layer metrics: the result line of a traced run
	notes  []string

	attempted, failed int

	// Layer samples from the workload's own load (traced runs); the
	// traced run fills the missing ones with probes of the other loads.
	search *searchSample
	deme   *demeSample
	submit *submitSample
	mutate *mutateSample
	hv     float64 // core.front_hv of the workload's own load
	digest string  // seq: digest of the fronts of the first MinSolves solves
}

// addResponse reports the workload's response times: the median and the
// 90th percentile, the highest with ten samples beyond it on the daemon
// workloads and seq-r1-400.
func (b *bench) addResponse(ms []float64) {
	b.e2e.add("response_ms_p50", quantile(ms, 0.5), "ms")
	b.e2e.add("response_ms_p90", quantile(ms, 0.9), "ms")
}

// fail records one failed operation or check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.notes) < 20 {
		b.notes = append(b.notes, fmt.Sprintf(format, args...))
	}
}

// timed runs f inside a span named name (recorded only when traced) and
// returns its wall time, measured inside the span.
func (b *bench) timed(parent *trace.Span, name string, f func() error) (time.Duration, error) {
	sp := b.tr.Start(parent, name)
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	sp.End()
	return d, err
}

// withSpan starts a span and, when traced, returns ctx carrying it so the
// program records its own spans beneath it.
func (b *bench) withSpan(ctx context.Context, parent *trace.Span, name string) (context.Context, *trace.Span) {
	sp := b.tr.Start(parent, name)
	if b.tr == nil {
		return ctx, nil
	}
	return trace.NewContext(ctx, b.tr, sp), sp
}

func (b *bench) scratch() string { return filepath.Join(b.out, "tmp") }

// instSeed derives the generator seed of the i-th instance of a workload,
// so every workload and every instance of one gets its own input. Any
// change to it changes every input, and voids CALIBRATION.md.
func instSeed(seed uint64, workload string, i int) uint64 {
	h := seed*0x9e3779b97f4a7c15 + uint64(i)
	for _, c := range workload {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h >> 1
}

// frontHV is the hypervolume of a front's feasible members as a fraction of
// the a-priori reference box of an N-customer instance: 40·N distance,
// N/4+10 vehicles, 100 tardiness (the Granular-parity point of
// internal/exp).
func frontHV(n int, objs []solution.Objectives) float64 {
	ref := solution.Objectives{Distance: 40 * float64(n), Vehicles: float64(n)/4 + 10, Tardiness: 100}
	var feas []solution.Objectives
	for _, o := range objs {
		if o.Feasible() {
			feas = append(feas, o)
		}
	}
	return metrics.Hypervolume(feas, ref) / (ref.Distance * ref.Vehicles * ref.Tardiness)
}

// validFront checks every member of a non-empty front against the instance.
func validFront(in *vrptw.Instance, front []*solution.Solution) error {
	if len(front) == 0 {
		return fmt.Errorf("empty front")
	}
	for i, s := range front {
		if err := solution.Validate(in, s); err != nil {
			return fmt.Errorf("front member %d: %w", i, err)
		}
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// msAll converts durations to milliseconds.
func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// heapSampler tracks the peak of the heap's live-and-unswept object bytes,
// sampled every 100 ms over a load.
type heapSampler struct {
	stop, done chan struct{}
	peak       uint64
}

// startHeapSampler begins sampling after a collection, so garbage left by
// the set-up does not count toward the load's peak.
func startHeapSampler() *heapSampler {
	runtime.GC()
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		read := func() {
			rtmetrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
		}
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		read()
		for {
			select {
			case <-tick.C:
				read()
			case <-h.stop:
				read()
				return
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the peak in MB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / 1e6
}

// runtimeTotals are the process-wide counters the runtime.* layer metrics
// difference over a load.
type runtimeTotals struct {
	allocBytes float64
	gcCPU      float64 // s of CPU spent in the garbage collector
	busyCPU    float64 // s of CPU the process used (available minus idle)
}

func readRuntime() runtimeTotals {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeTotals{
		allocBytes: float64(s[0].Value.Uint64()),
		gcCPU:      s[1].Value.Float64(),
		busyCPU:    s[2].Value.Float64() - s[3].Value.Float64(),
	}
}

func (a runtimeTotals) sub(b runtimeTotals) runtimeTotals {
	return runtimeTotals{a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.busyCPU - b.busyCPU}
}
