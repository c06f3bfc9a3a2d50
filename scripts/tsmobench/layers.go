package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"repro/internal/construct"
	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/dynamic"
	"repro/internal/operators"
	"repro/internal/pareto"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// traceLayers measures every per-layer metric of a traced run. The result
// line carries one list of per-layer metrics for every workload, so layers
// the workload's own load does not reach are measured by short probes of
// the loads that do: the async run for deme.*, the daemon loads for
// service.*.
func (b *bench) traceLayers(ctx context.Context) error {
	if err := b.probes(ctx); err != nil {
		return err
	}
	// The frozen fixture and the overhead pairs use the workload's search
	// configuration: async-r2-400's for that workload, seq-r1-400's for the
	// other three, whose daemon jobs run it.
	gc, cfg, alg := vrptw.GenConfig{Class: vrptw.R1, N: b.sc.N, Seed: instSeed(b.seed, b.name, 0)}, seqConfig(b.sc, b.seed), core.Sequential
	if b.name == wAsync {
		gc.Class, cfg, alg = vrptw.R2, asyncConfig(b.seed, 0), core.Asynchronous
	}
	in, err := vrptw.Generate(gc)
	if err != nil {
		return err
	}
	if err := b.kernelLayers(ctx, gc, in, cfg, alg); err != nil {
		return err
	}
	if gc.Class != vrptw.R1 {
		if in, err = vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: b.sc.N, Seed: instSeed(b.seed, wSeq, 0)}); err != nil {
			return err
		}
	}
	if err := b.overheadLayers(ctx, in); err != nil {
		return err
	}
	if err := b.fsyncLayer(); err != nil {
		return err
	}
	b.searchLayers()
	b.demeLayers()
	b.serviceLayers()
	return nil
}

// probes runs, at probe scale, the loads whose layers the workload's own
// load left unmeasured.
func (b *bench) probes(ctx context.Context) error {
	if b.deme == nil {
		sp := b.tr.Start(b.root, "probe.async")
		a, err := b.runAsync(ctx, sp, b.sc.ProbeBox, 1)
		sp.End()
		if err != nil {
			return err
		}
		b.deme = demeOf(a)
	}
	if b.submit != nil && b.mutate != nil {
		return nil
	}
	sp := b.tr.Start(b.root, "probe.daemon")
	defer sp.End()
	d, err := openDaemon(b.scratch())
	if err != nil {
		return err
	}
	defer d.close()
	if b.submit == nil {
		if b.submit, err = b.submitLoad(ctx, d, sp, 0, b.sc.ProbeJobs); err != nil {
			return err
		}
	}
	if b.mutate == nil {
		dj, err := b.startDyn(ctx, d, sp)
		if err != nil {
			return err
		}
		s, err := b.mutateLoad(ctx, d, dj, sp, 0, b.sc.ProbeMutations)
		if err != nil {
			dj.close()
			return err
		}
		if _, err := b.endDyn(ctx, d, dj, s); err != nil {
			return err
		}
		b.mutate = s
	}
	return nil
}

// captureFixture runs the configuration on the simulator until its first
// checkpoint barrier (iteration 1000) and returns that checkpoint.
func captureFixture(ctx context.Context, in *vrptw.Instance, cfg core.Config, alg core.Algorithm) (*core.Checkpoint, error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var ck *core.Checkpoint
	cfg.CheckpointEvery = 1000
	cfg.MaxEvaluations = math.MaxInt32
	cfg.CheckpointSink = func(c *core.Checkpoint) error {
		if ck == nil {
			ck = c
			cancel()
		}
		return nil
	}
	if _, err := core.RunContext(cctx, alg, in, cfg, deme.NewSim(deme.Origin3800())); err != nil {
		return nil, err
	}
	if ck == nil {
		return nil, errors.New("the fixture run ended before its first checkpoint barrier")
	}
	return ck, nil
}

// kernelLayers times the public operations of the search's layers on a
// frozen fixture: the workload configuration's state at its first
// checkpoint barrier. Every repetition starts from that state — the same
// current solution, archive and random stream — so each proposes the same
// moves. Each value is the median over the repetitions.
func (b *bench) kernelLayers(ctx context.Context, gc vrptw.GenConfig, in *vrptw.Instance, cfg core.Config, alg core.Algorithm) error {
	parent := b.tr.Start(b.root, "fixture")
	defer parent.End()
	reps := b.sc.Reps
	var genErr error
	gen := b.repeat(parent, "vrptw.generate", reps, func() { _, genErr = vrptw.Generate(gc) })
	if genErr != nil {
		return genErr
	}
	var nl []float64
	for i := 0; i < reps; i++ {
		fresh, err := vrptw.New(in.Name, in.Sites, in.Vehicles, in.Capacity)
		if err != nil {
			return err
		}
		d, _ := b.timed(parent, "vrptw.neighbor_lists", func() error { fresh.NeighborLists(granularK); return nil })
		nl = append(nl, ms(d))
	}
	i1 := b.repeat(parent, "construct.i1", reps, func() {
		construct.I1(in, construct.RandomParams(rng.New(b.seed)))
	})
	b.layers.add("vrptw.generate_ms", median(msAll(gen)), "ms")
	b.layers.add("vrptw.neighbor_lists_ms", median(nl), "ms")
	b.layers.add("construct.i1_ms", median(msAll(i1)), "ms")

	ck, err := captureFixture(ctx, in, cfg, alg)
	if err != nil {
		return err
	}
	part := ck.Parts[0]
	g := operators.NewGenerator(in, cfg.Operators)
	if cfg.GranularK > 0 {
		g.Granular = in.NeighborLists(cfg.GranularK)
	}
	// Two equal copies of the current solution, alternated, so every
	// repetition pays the schedule-cache rebuild a new current solution
	// costs each search iteration.
	curs := [2]*solution.Solution{solution.New(in, part.Cur), solution.New(in, part.Cur)}
	stored := make([]*solution.Solution, len(part.Archive))
	for i, routes := range part.Archive {
		stored[i] = solution.New(in, routes)
	}
	archive := pareto.NewArchive(cfg.ArchiveSize)
	r := rng.New(0)
	var (
		buf                                       operators.CandidateBuffer
		objs                                      []solution.Objectives
		nd                                        []int
		propose, delta, nondom, apply, archiveAdd []float64
	)
	for rep := 0; rep < reps; rep++ {
		cur := curs[rep%2]
		r.SetState(part.RNG)
		d, _ := b.timed(parent, "operators.propose", func() error {
			g.MovesInto(&buf, cur, r, cfg.NeighborhoodSize)
			return nil
		})
		propose = append(propose, us(d))
		if len(buf.Data) == 0 {
			return errors.New("the fixture proposes no moves")
		}
		objs = make([]solution.Objectives, len(buf.Data))
		d, _ = b.timed(parent, "operators.delta", func() error { g.EvalDataInto(cur, buf.Data, objs); return nil })
		delta = append(delta, us(d))
		d, _ = b.timed(parent, "pareto.nondom", func() error { nd = pareto.NondominatedIndices(objs); return nil })
		nondom = append(nondom, us(d))
		var first *solution.Solution
		for _, i := range nd {
			var sol *solution.Solution
			d, _ = b.timed(parent, "solution.apply", func() error { sol = buf.Data[i].Apply(in, cur); return nil })
			apply = append(apply, us(d))
			if first == nil {
				first = sol
			}
		}
		archive.Restore(stored)
		d, _ = b.timed(parent, "pareto.archive_add", func() error {
			if archive.WouldAccept(first.Obj) {
				archive.Add(first)
			}
			return nil
		})
		archiveAdd = append(archiveAdd, us(d))
	}
	b.layers.add("operators.propose_us", median(propose), "us")
	b.layers.add("operators.delta_us", median(delta), "us")
	b.layers.add("pareto.nondom_us", median(nondom), "us")
	b.layers.add("solution.apply_us", median(apply), "us")
	b.layers.add("pareto.archive_add_us", median(archiveAdd), "us")

	var data []byte
	enc := b.repeat(parent, "core.ckpt_encode", reps, func() { data, err = core.EncodeCheckpoint(ck) })
	if err != nil {
		return err
	}
	dec := b.repeat(parent, "core.ckpt_decode", reps, func() { _, err = core.DecodeCheckpoint(data) })
	if err != nil {
		return err
	}
	b.layers.add("core.ckpt_encode_ms", median(msAll(enc)), "ms")
	b.layers.add("core.ckpt_decode_ms", median(msAll(dec)), "ms")
	b.layers.add("core.ckpt_kb", float64(len(data))/1024, "KB")

	// One-mutation batches of the svc-mutate cycle, each applied at the
	// fixture's barrier by a fresh schedule.
	m := &mutator{r: rng.New(b.seed), cur: in}
	var splice []float64
	for rep := 0; rep < reps; rep++ {
		mut, _, err := m.next()
		if err != nil {
			return err
		}
		sc := dynamic.NewSchedule()
		if err := sc.AddAt(ck.Barrier, []dynamic.Mutation{mut}); err != nil {
			return err
		}
		d, err := b.timed(parent, "dynamic.splice_repair", func() error {
			_, _, err := sc.Apply(ctx, in, ck)
			return err
		})
		if err != nil {
			return err
		}
		splice = append(splice, ms(d))
	}
	b.layers.add("dynamic.splice_repair_ms", median(splice), "ms")
	return nil
}

// repeat times f n times, one span each.
func (b *bench) repeat(parent *trace.Span, name string, n int, f func()) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i], _ = b.timed(parent, name, func() error { f(); return nil })
	}
	return out
}

// overheadLayers measures what the observability layers cost the
// seq-r1-400 solve: interleaved pairs of identical solves, one with the
// layer off and one with it on, alternating which runs first. Each value
// is the median of the pairs' relative differences, with their IQR.
func (b *bench) overheadLayers(ctx context.Context, in *vrptw.Instance) error {
	parent := b.tr.Start(b.root, "overhead")
	defer parent.End()
	cfg := seqConfig(b.sc, 1)
	solve := func(layer string) (time.Duration, error) {
		c, sctx := cfg, ctx
		switch layer {
		case "telemetry":
			c.Telemetry = telemetry.New(nil, nil)
		case "trace":
			sctx = trace.NewContext(ctx, trace.New(256), nil)
		}
		return b.timed(parent, "overhead."+layer, func() error {
			_, err := core.RunContext(sctx, core.Sequential, in, c, deme.NewSim(deme.Origin3800()))
			return err
		})
	}
	for _, layer := range []string{"telemetry", "trace"} {
		var pct []float64
		for p := 0; p < b.sc.Pairs; p++ {
			t := make(map[string]time.Duration, 2)
			for _, l := range [2][2]string{{"off", layer}, {layer, "off"}}[p%2] {
				d, err := solve(l)
				if err != nil {
					return err
				}
				t[l] = d
			}
			pct = append(pct, 100*(t[layer].Seconds()/t["off"].Seconds()-1))
		}
		b.layers.add(layer+".overhead_pct", median(pct), "%")
		b.layers.add(layer+".overhead_iqr_pct", iqr(pct), "%")
	}
	return nil
}

// fsyncLayer times 256-byte appends made durable with fsync in the scratch
// directory: the floor under every WAL write of the daemon.
func (b *bench) fsyncLayer() error {
	if err := os.MkdirAll(b.scratch(), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(b.scratch(), "fsync-")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	rec := make([]byte, 256)
	var lat []float64
	for i := 0; i < b.sc.Fsyncs; i++ {
		d, err := b.timed(b.root, "disk.fsync", func() error {
			if _, err := f.Write(rec); err != nil {
				return err
			}
			return f.Sync()
		})
		if err != nil {
			return fmt.Errorf("fsync probe: %w", err)
		}
		lat = append(lat, ms(d))
	}
	b.layers.add("disk.fsync_ms", median(lat), "ms")
	return nil
}

// sumSeries sums every series of a counter family.
func sumSeries(c map[string]float64, name string) float64 {
	var s float64
	for k, v := range c {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// searchLayers derives the search kernel's per-iteration metrics from the
// workload's own load, and core.unattributed_us: the part of an iteration
// the fixture-timed kernel operations do not account for.
func (b *bench) searchLayers() {
	c := b.search.counters
	iters := c["tsmo_search_iterations_total"]
	b.layers.add("operators.fallback_ratio",
		sumSeries(c, "tsmo_operator_fallbacks_total")/sumSeries(c, "tsmo_operator_proposed_total"), "ratio")
	b.layers.add("operators.accept_ratio",
		sumSeries(c, "tsmo_operator_accepted_total")/sumSeries(c, "tsmo_operator_selected_total"), "ratio")
	accepts := c["tsmo_store_accepts_total{memory=nondom}"] / iters
	b.layers.add("pareto.nondom_accepts_per_iter", accepts, "count")
	b.layers.add("core.restarts_per_kiter", 1000*sumSeries(c, "tsmo_search_restarts_total")/iters, "count")
	b.layers.add("core.front_hv", b.hv, "ratio")
	iter := us(b.search.wall) / iters
	b.layers.add("core.iter_us", iter, "us")
	l := b.layers.m
	kernel := l["operators.propose_us"].Value + l["operators.delta_us"].Value + l["pareto.nondom_us"].Value +
		l["solution.apply_us"].Value*(1+accepts) + l["pareto.archive_add_us"].Value
	b.layers.add("core.unattributed_us", iter-kernel, "us")
	rt := b.search.rt
	b.layers.add("runtime.alloc_kb_per_iter", rt.allocBytes/1024/iters, "KB")
	// The runtime folds CPU time into these counters at the end of each GC
	// cycle; a load that saw no cycle spent no CPU in the collector.
	gcFrac := 0.0
	if rt.busyCPU > 0 {
		gcFrac = rt.gcCPU / rt.busyCPU
	}
	b.layers.add("runtime.gc_cpu_frac", gcFrac, "ratio")
}

// demeLayers derives the asynchronous master's wait and decision mix.
func (b *bench) demeLayers() {
	s := b.deme
	iters := s.counters["tsmo_search_iterations_total"]
	fires := sumSeries(s.counters, "tsmo_async_decision_total")
	b.layers.add("deme.wait_s_per_iter", s.wait/iters, "s")
	b.layers.add("deme.wait_frac", s.wait/s.wall.Seconds(), "ratio")
	b.layers.add("deme.fires_idle_frac", s.counters["tsmo_async_decision_total{reason=idle_worker}"]/fires, "ratio")
	b.layers.add("deme.fires_timeout_frac", s.counters["tsmo_async_decision_total{reason=timeout}"]/fires, "ratio")
	b.layers.add("deme.partial_size_mean", s.partial, "count")
}

// spanNames are the daemon's span names whose self time is reported.
var spanNames = []string{"accept", "queue", "construct", "sweep", "ckpt_barrier", "mutation", "splice", "repair", "warm_restart"}

// serviceLayers derives the daemon's per-layer latencies from the client
// records and the jobs' own spans.
func (b *bench) serviceLayers() {
	var submit, queue, toFirst, lags, events []float64
	self := make(map[string][]float64)
	for _, j := range b.submit.jobs {
		submit = append(submit, ms(j.submit))
		queue = append(queue, ms(j.queue))
		toFirst = append(toFirst, ms(j.startToFirst))
		lags = append(lags, j.lags...)
		events = append(events, float64(j.events))
		selfTimes(j.spans, self)
	}
	mt := b.mutate
	lags = append(lags, mt.lags...)
	selfTimes(mt.spans, self)
	b.layers.add("service.submit_ms_p50", quantile(submit, 0.5), "ms")
	b.layers.add("service.submit_ms_p95", quantile(submit, 0.95), "ms")
	b.layers.add("service.queue_ms_p50", quantile(queue, 0.5), "ms")
	b.layers.add("service.queue_ms_p95", quantile(queue, 0.95), "ms")
	b.layers.add("service.start_to_first_ms_p50", quantile(toFirst, 0.5), "ms")
	b.layers.add("service.start_to_first_ms_p95", quantile(toFirst, 0.95), "ms")
	b.layers.add("service.sse_lag_ms_p50", median(lags), "ms")
	b.layers.add("service.events_per_job", mean(events), "count")
	b.layers.add("service.patch_ms_p50", quantile(mt.patch, 0.5), "ms")
	b.layers.add("service.patch_ms_p95", quantile(mt.patch, 0.95), "ms")
	b.layers.add("service.barrier_wait_ms_p50", median(mt.barrierWait), "ms")
	for _, name := range spanNames {
		b.layers.add("service.span_self_ms."+name, median(self[name]), "ms")
	}
}
