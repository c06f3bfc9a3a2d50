package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/metrics"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// searchSample is the search kernel's telemetry over a workload's own load.
type searchSample struct {
	counters map[string]float64 // tsmo_* series keyed like telemetry.Sample.Key
	wall     time.Duration      // search time the iterations ran in
	rt       runtimeTotals      // process counters over the load
}

// demeSample is the asynchronous master's decision telemetry over one run.
type demeSample struct {
	counters map[string]float64
	wait     float64 // summed per-iteration master wait, s
	partial  float64 // mean candidate-set size per master step
	wall     time.Duration
}

func counterMap(samples []telemetry.Sample) map[string]float64 {
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		m[s.Key()] += s.V
	}
	return m
}

// seqConfig is the seq-r1-400 solve: the paper's parameters and budget on
// granular neighborhoods.
func seqConfig(sc scale, seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = sc.SolveEvals
	cfg.GranularK = granularK
	cfg.Seed = seed
	return cfg
}

// asyncConfig is the async-r2-400 run: P=2, full neighborhoods, a wall-time
// box and one convergence sample per master iteration.
func asyncConfig(seed uint64, box time.Duration) core.Config {
	cfg := core.DefaultConfig()
	cfg.Processors = 2
	cfg.MaxSeconds = box.Seconds()
	cfg.MaxEvaluations = math.MaxInt32
	cfg.SampleEvery = 1
	cfg.Seed = seed
	return cfg
}

// solve runs one sequential solve on the simulator backend and times it.
func (b *bench) solve(ctx context.Context, parent *trace.Span, in *vrptw.Instance, cfg core.Config) (*core.Result, time.Duration, error) {
	sctx, sp := b.withSpan(ctx, parent, "solve")
	t0 := time.Now()
	res, err := core.RunContext(sctx, core.Sequential, in, cfg, deme.NewSim(deme.Origin3800()))
	d := time.Since(t0)
	sp.End()
	return res, d, err
}

// hashFront folds a front's routes and exact objective bits into h.
func hashFront(h hash.Hash, front []*solution.Solution) {
	for _, s := range front {
		fmt.Fprintf(h, "%v %x %x %x;", s.Routes, math.Float64bits(s.Obj.Distance),
			math.Float64bits(s.Obj.Vehicles), math.Float64bits(s.Obj.Tardiness))
	}
	h.Write([]byte{'\n'})
}

func frontDigest(front []*solution.Solution) string {
	h := sha256.New()
	hashFront(h, front)
	return hex.EncodeToString(h.Sum(nil))
}

// runSeq is seq-r1-400: a closed loop of sequential solves at the paper's
// budget over a pool of generated R1 instances, round-robin, for the box.
func (b *bench) runSeq(ctx context.Context) error {
	sc := b.sc
	pool := make([]*vrptw.Instance, sc.Pool)
	setups := make([]float64, sc.Pool)
	for i := range pool {
		d, err := b.timed(b.root, "setup", func() error {
			in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: sc.N, Seed: instSeed(b.seed, wSeq, i)})
			if err != nil {
				return err
			}
			in.NeighborLists(granularK)
			pool[i] = in
			return nil
		})
		if err != nil {
			return fmt.Errorf("generating instance %d: %w", i, err)
		}
		setups[i] = d.Seconds()
	}
	b.e2e.add("setup_s", median(setups), "s")

	var tel *telemetry.Telemetry
	if b.traced {
		tel = telemetry.New(nil, nil)
	}
	lctx, load := b.withSpan(ctx, b.root, "load")
	rt0 := readRuntime()
	var (
		lat        []float64
		evals      int
		wall       time.Duration
		hvs        []float64
		firstFront string
	)
	digest := sha256.New()
	heap := startHeapSampler()
	start := time.Now()
	for i := 0; i < sc.MinSolves || time.Since(start) < sc.Box; i++ {
		in := pool[i%len(pool)]
		cfg := seqConfig(sc, uint64(i+1))
		cfg.Telemetry = tel
		res, d, err := b.solve(lctx, load, in, cfg)
		if err != nil {
			return fmt.Errorf("solve %d: %w", i, err)
		}
		b.attempted++
		lat = append(lat, ms(d))
		evals += res.Evaluations
		wall += d
		if err := validFront(in, res.Front); err != nil {
			b.fail("solve %d: %v", i, err)
		}
		if i == 0 {
			firstFront = frontDigest(res.Front)
		}
		if i < sc.MinSolves {
			hashFront(digest, res.Front)
			hvs = append(hvs, frontHV(in.N(), metrics.Objs(res.Front)))
		}
	}
	rt := readRuntime().sub(rt0)
	peak := heap.peakMB()
	load.End()

	// Same inputs, same front: solve 0 again and compare.
	b.attempted++
	res, _, err := b.solve(ctx, b.root, pool[0], seqConfig(sc, 1))
	if err != nil {
		return fmt.Errorf("repeating solve 0: %w", err)
	}
	if frontDigest(res.Front) != firstFront {
		b.fail("solve 0 repeated with the same inputs returned a different front")
	}

	b.e2e.add("evals_per_s", float64(evals)/wall.Seconds(), "1/s")
	b.addResponse(lat)
	b.e2e.add("peak_heap_mb", peak, "MB")
	b.hv = mean(hvs)
	b.info.add("solves", float64(len(lat)), "count")
	b.info.add("front_hv", b.hv, "ratio")
	b.digest = fmt.Sprintf("solves 0..%d sha256:%s", sc.MinSolves-1, hex.EncodeToString(digest.Sum(nil)))
	if b.traced {
		b.search = &searchSample{counters: counterMap(tel.Samples()), wall: wall, rt: rt}
	}
	return nil
}

// asyncRun is one asynchronous run and what the workload reports of it.
type asyncRun struct {
	in     *vrptw.Instance
	res    *core.Result
	wall   time.Duration
	setups []float64
	iterMs []float64 // master iteration wall times
	peakMB float64
	tel    *telemetry.Telemetry
	rt     runtimeTotals
}

// runAsync sets up the R2 instance — generation and neighbor lists, as
// seq-r1-400's set-up, though the dense search never reads the lists — and
// runs asynchronous TSMO with P=2 on the goroutine backend for the box.
func (b *bench) runAsync(ctx context.Context, parent *trace.Span, box time.Duration, setups int) (*asyncRun, error) {
	out := &asyncRun{}
	for i := 0; i < setups; i++ {
		d, err := b.timed(parent, "setup", func() error {
			var err error
			out.in, err = vrptw.Generate(vrptw.GenConfig{Class: vrptw.R2, N: b.sc.N, Seed: instSeed(b.seed, wAsync, 0)})
			if err == nil {
				out.in.NeighborLists(granularK)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("generating the R2 instance: %w", err)
		}
		out.setups = append(out.setups, d.Seconds())
	}
	cfg := asyncConfig(b.seed, box)
	if b.traced {
		out.tel = telemetry.New(nil, nil)
		cfg.Telemetry = out.tel
	}
	// The box bounds the run; the deadline only guards against a hang.
	rctx, cancel := context.WithTimeout(ctx, box+time.Minute)
	defer cancel()
	rctx, sp := b.withSpan(rctx, parent, "async.run")
	heap := startHeapSampler()
	rt0 := readRuntime()
	t0 := time.Now()
	res, err := core.RunContext(rctx, core.Asynchronous, out.in, cfg, deme.NewGoroutine())
	out.wall = time.Since(t0)
	out.rt = readRuntime().sub(rt0)
	out.peakMB = heap.peakMB()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("asynchronous run: %w", err)
	}
	out.res = res
	prev := 0.0
	for _, s := range res.Samples {
		out.iterMs = append(out.iterMs, (s.Time-prev)*1000)
		prev = s.Time
	}
	b.attempted++
	if err := validFront(out.in, res.Front); err != nil {
		b.fail("asynchronous front: %v", err)
	}
	if len(out.iterMs) == 0 {
		b.fail("asynchronous run finished without a master iteration")
	}
	return out, nil
}

// demeOf extracts the decision-function telemetry of a traced async run.
func demeOf(a *asyncRun) *demeSample {
	return &demeSample{
		counters: counterMap(a.tel.Samples()),
		wait:     float64(a.tel.Async.WaitSeconds.Snapshot().Sum) * 1e-9,
		partial:  a.tel.Async.PartialSizes.Snapshot().Mean,
		wall:     a.wall,
	}
}

// runAsyncWorkload is async-r2-400.
func (b *bench) runAsyncWorkload(ctx context.Context) error {
	a, err := b.runAsync(ctx, b.root, b.sc.Box, b.sc.InstReps)
	if err != nil {
		return err
	}
	b.e2e.add("setup_s", median(a.setups), "s")
	b.e2e.add("evals_per_s", float64(a.res.Evaluations)/a.wall.Seconds(), "1/s")
	b.addResponse(a.iterMs)
	b.e2e.add("peak_heap_mb", a.peakMB, "MB")
	b.hv = frontHV(a.in.N(), metrics.Objs(a.res.Front))
	b.info.add("iterations", float64(a.res.Iterations), "count")
	b.info.add("front_hv", b.hv, "ratio")
	if b.traced {
		b.search = &searchSample{counters: counterMap(a.tel.Samples()), wall: a.wall, rt: a.rt}
		b.deme = demeOf(a)
	}
	return nil
}
