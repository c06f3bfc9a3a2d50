package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/deme"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// chaosConfig is the shared setup of the chaos scenarios: a small budget
// and recovery deadlines short enough that faults are absorbed within a
// few simulated seconds.
func chaosConfig() Config {
	cfg := smallConfig()
	cfg.MaxEvaluations = 2000
	cfg.RecvTimeout = 0.5
	cfg.EvictAfter = 2
	return cfg
}

// sameFront fails unless both fronts carry bitwise-identical objectives.
func sameFront(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.Front) != len(b.Front) {
		t.Fatalf("%s: front sizes %d vs %d", label, len(a.Front), len(b.Front))
	}
	for i := range a.Front {
		if a.Front[i].Obj != b.Front[i].Obj {
			t.Fatalf("%s: front[%d] %+v vs %+v", label, i, a.Front[i].Obj, b.Front[i].Obj)
		}
	}
}

// sameSearch fails unless both runs performed the identical search —
// evaluations, iterations and front. Elapsed may differ (faults cost time).
func sameSearch(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Evaluations != b.Evaluations || a.Iterations != b.Iterations {
		t.Fatalf("%s: evals/iters %d/%d vs %d/%d",
			label, a.Evaluations, a.Iterations, b.Evaluations, b.Iterations)
	}
	sameFront(t, label, a, b)
}

// TestChaosScenarios is the deterministic chaos suite: every scenario runs
// on the simulator with fault injection, must complete without error with
// a valid front and its evaluation budget spent, must be bit-identical
// across same-seed repetitions, and must fire the expected fault and
// recovery counters. Synchronous scenarios additionally must perform the
// exact same search as the fault-free sequential reference — the variant's
// §III.C equivalence may not be broken by recovery.
func TestChaosScenarios(t *testing.T) {
	in := testInstance(t, 30)
	base := chaosConfig()

	seqRef, err := Run(Sequential, in, base, deme.NewSim(deme.Ideal()))
	if err != nil {
		t.Fatal(err)
	}

	scenarios := []struct {
		name       string
		alg        Algorithm
		procs      int
		islands    int
		evictAfter int // 0: keep the default
		minEvals   int
		matchesSeq bool
		plans      map[int]deme.FaultPlan
		// want maps counter names to loaders; each must end up > 0.
		want map[string]telemetry.CounterID
	}{
		{
			name: "sync/worker-crash", alg: Synchronous, procs: 3,
			minEvals: 2000, matchesSeq: true,
			plans: map[int]deme.FaultPlan{1: {CrashAt: 1.0}},
			want: map[string]telemetry.CounterID{
				"crashes":   telemetry.Crashes,
				"evictions": telemetry.WorkerEvictions,
				"degraded":  telemetry.DegradedIters,
			},
		},
		{
			name: "sync/all-workers-crash", alg: Synchronous, procs: 3,
			minEvals: 2000, matchesSeq: true,
			plans: map[int]deme.FaultPlan{1: {CrashAt: 1.0}, 2: {CrashAt: 1.2}},
			want: map[string]telemetry.CounterID{
				"crashes":   telemetry.Crashes,
				"evictions": telemetry.WorkerEvictions,
				"degraded":  telemetry.DegradedIters,
			},
		},
		{
			name: "sync/result-drop", alg: Synchronous, procs: 3,
			minEvals: 2000, matchesSeq: true,
			plans: map[int]deme.FaultPlan{0: {DropProb: 0.4, FaultTags: []int{tagResult}, Seed: 11}},
			want: map[string]telemetry.CounterID{
				"dropped":      telemetry.MsgsDropped,
				"timeouts":     telemetry.RecvTimeouts,
				"redispatches": telemetry.Redispatches,
			},
		},
		{
			name: "sync/master-stall", alg: Synchronous, procs: 3,
			minEvals: 2000, matchesSeq: true,
			plans: map[int]deme.FaultPlan{0: {StallAt: 1.0, StallFor: 5.0}},
			want: map[string]telemetry.CounterID{
				"stalls": telemetry.Stalls,
			},
		},
		{
			name: "sync/worker-stall", alg: Synchronous, procs: 3,
			minEvals: 2000, matchesSeq: true,
			plans: map[int]deme.FaultPlan{1: {StallAt: 1.0, StallFor: 3.0}},
			want: map[string]telemetry.CounterID{
				"stalls":   telemetry.Stalls,
				"timeouts": telemetry.RecvTimeouts,
			},
		},
		{
			name: "sync/dup-delay", alg: Synchronous, procs: 3,
			minEvals: 2000, matchesSeq: true,
			plans: map[int]deme.FaultPlan{0: {
				DupProb: 0.5, DelayProb: 0.5, DelayMax: 0.3,
				FaultTags: []int{tagResult}, Seed: 4,
			}},
			want: map[string]telemetry.CounterID{
				"duplicated": telemetry.MsgsDuplicated,
				"delayed":    telemetry.MsgsDelayed,
				"stale":      telemetry.StaleResults,
			},
		},
		{
			name: "async/worker-crash", alg: Asynchronous, procs: 3,
			minEvals: 2000,
			plans:    map[int]deme.FaultPlan{1: {CrashAt: 0.8}},
			want: map[string]telemetry.CounterID{
				"crashes":   telemetry.Crashes,
				"evictions": telemetry.WorkerEvictions,
			},
		},
		{
			name: "async/result-drop", alg: Asynchronous, procs: 3,
			minEvals: 2000,
			plans:    map[int]deme.FaultPlan{0: {DropProb: 0.3, FaultTags: []int{tagResult}, Seed: 5}},
			want: map[string]telemetry.CounterID{
				"dropped": telemetry.MsgsDropped,
			},
		},
		{
			name: "async/stall-revive", alg: Asynchronous, procs: 3,
			evictAfter: 1, minEvals: 2000,
			plans: map[int]deme.FaultPlan{1: {StallAt: 0.3, StallFor: 0.6}},
			want: map[string]telemetry.CounterID{
				"stalls":    telemetry.Stalls,
				"evictions": telemetry.WorkerEvictions,
				"revivals":  telemetry.WorkerRevivals,
			},
		},
		{
			name: "async/clock-skew", alg: Asynchronous, procs: 3,
			minEvals: 2000,
			plans:    map[int]deme.FaultPlan{1: {ClockSkew: 0.5}, 2: {ClockSkew: -0.2}},
			want:     nil,
		},
		{
			name: "collab/searcher-crash", alg: Collaborative, procs: 3,
			minEvals: 4000, // the two surviving searchers spend full budgets
			plans:    map[int]deme.FaultPlan{2: {CrashAt: 2.0}},
			want: map[string]telemetry.CounterID{
				"crashes": telemetry.Crashes,
			},
		},
		{
			name: "combined/island-master-crash", alg: Combined, procs: 4, islands: 2,
			minEvals: 2000, // the surviving island's master spends its budget
			plans:    map[int]deme.FaultPlan{2: {CrashAt: 0.8}},
			want: map[string]telemetry.CounterID{
				"crashes": telemetry.Crashes,
			},
		},
	}

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			run := func() (*Result, *telemetry.Telemetry) {
				cfg := chaosConfig()
				cfg.Processors = sc.procs
				cfg.Islands = sc.islands
				if sc.evictAfter > 0 {
					cfg.EvictAfter = sc.evictAfter
				}
				tel := telemetry.New(nil, nil)
				cfg.Telemetry = tel
				ft := deme.NewFaulty(deme.NewSim(deme.Ideal()), sc.plans)
				ft.Telemetry = tel
				res, err := Run(sc.alg, in, cfg, ft)
				if err != nil {
					t.Fatalf("run under faults failed: %v", err)
				}
				return res, tel
			}
			a, fs := run()
			b, _ := run()

			checkResult(t, in, a, sc.minEvals)
			if a.Elapsed != b.Elapsed {
				t.Errorf("nondeterministic elapsed: %v vs %v", a.Elapsed, b.Elapsed)
			}
			sameSearch(t, "repeat", a, b)
			if sc.matchesSeq {
				sameSearch(t, "vs sequential", seqRef, a)
			}
			for name, id := range sc.want {
				if fs.Load(id) == 0 {
					t.Errorf("counter %s stayed 0", name)
				}
			}
		})
	}
}

// TestSyncTrajectoryMatchesSequential is the §III.C property: fault-free,
// the synchronous parallelization is the sequential algorithm — same
// evaluations, same iteration count, identical trajectory and front across
// seeds and processor counts, independent of the simulated machine.
func TestSyncTrajectoryMatchesSequential(t *testing.T) {
	in := testInstance(t, 30)
	for _, seed := range []uint64{1, 2, 3} {
		cfg := smallConfig()
		cfg.MaxEvaluations = 1500
		cfg.Seed = seed
		cfg.RecordTrajectory = true
		seq, err := Run(Sequential, in, cfg, deme.NewSim(deme.Ideal()))
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 4, 6} {
			c := cfg
			c.Processors = procs
			syn, err := Run(Synchronous, in, c, deme.NewSim(deme.Ideal()))
			if err != nil {
				t.Fatal(err)
			}
			label := "seed/procs"
			sameSearch(t, label, seq, syn)
			if len(seq.Trajectory.Points) != len(syn.Trajectory.Points) {
				t.Fatalf("seed %d P=%d: trajectory lengths %d vs %d", seed, procs,
					len(seq.Trajectory.Points), len(syn.Trajectory.Points))
			}
			for i := range seq.Trajectory.Points {
				if seq.Trajectory.Points[i] != syn.Trajectory.Points[i] {
					t.Fatalf("seed %d P=%d: trajectory diverges at point %d: %+v vs %+v",
						seed, procs, i, seq.Trajectory.Points[i], syn.Trajectory.Points[i])
				}
			}
		}
	}

	// The machine model shifts timings only, never the trajectory.
	cfg := smallConfig()
	cfg.MaxEvaluations = 1500
	cfg.RecordTrajectory = true
	seq, err := Run(Sequential, in, cfg, deme.NewSim(deme.Ideal()))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Processors = 3
	syn, err := Run(Synchronous, in, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		t.Fatal(err)
	}
	sameSearch(t, "noisy machine", seq, syn)
}

// TestChaosGoroutineNoDeadlock exercises the self-healing paths under real
// concurrency: a process dying (or results vanishing) must never deadlock
// a variant — every run completes with a non-empty front. Run with -race.
func TestChaosGoroutineNoDeadlock(t *testing.T) {
	in := testInstance(t, 30)
	for _, tc := range []struct {
		name    string
		alg     Algorithm
		procs   int
		islands int
		plans   map[int]deme.FaultPlan
	}{
		{"sync-worker-crash", Synchronous, 3, 0, map[int]deme.FaultPlan{1: {CrashAt: 1e-3}}},
		{"sync-result-drop", Synchronous, 3, 0,
			map[int]deme.FaultPlan{0: {DropProb: 0.3, FaultTags: []int{tagResult}, Seed: 1}}},
		{"async-worker-crash", Asynchronous, 3, 0, map[int]deme.FaultPlan{1: {CrashAt: 1e-3}}},
		{"collab-searcher-crash", Collaborative, 3, 0, map[int]deme.FaultPlan{2: {CrashAt: 1e-3}}},
		{"combined-master-crash", Combined, 4, 2, map[int]deme.FaultPlan{2: {CrashAt: 1e-3}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.MaxEvaluations = 600
			cfg.Processors = tc.procs
			cfg.Islands = tc.islands
			cfg.RecvTimeout = 0.05 // wall seconds on the goroutine backend
			res, err := Run(tc.alg, in, cfg, deme.NewFaulty(deme.NewGoroutine(), tc.plans))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Front) == 0 {
				t.Fatal("empty front")
			}
		})
	}
}

// corruptingRuntime mangles the payload of every message with the given
// tag, modeling a serialization bug between processes.
type corruptingRuntime struct {
	inner deme.Runtime
	tag   int
}

func (c *corruptingRuntime) Elapsed() float64        { return c.inner.Elapsed() }
func (c *corruptingRuntime) Stats() []deme.ProcStats { return c.inner.Stats() }

func (c *corruptingRuntime) Run(ctx context.Context, n int, body func(deme.Proc)) error {
	return c.inner.Run(ctx, n, func(p deme.Proc) { body(corruptingProc{p, c.tag}) })
}

type corruptingProc struct {
	deme.Proc
	tag int
}

func (c corruptingProc) Send(to, tag int, data any, bytes int) {
	if tag == c.tag {
		data = "corrupted-payload"
	}
	c.Proc.Send(to, tag, data, bytes)
}

// TestMalformedPayloadSurfacesAsError pins the protocol-guard contract: a
// result payload failing its type assertion must surface as an error from
// core.Run — never a panic — while a malformed work message is dropped by
// the worker and recovered by the master without changing the search.
func TestMalformedPayloadSurfacesAsError(t *testing.T) {
	in := testInstance(t, 20)
	for _, alg := range []Algorithm{Synchronous, Asynchronous} {
		cfg := smallConfig()
		cfg.MaxEvaluations = 500
		cfg.Processors = 3
		rt := &corruptingRuntime{inner: deme.NewSim(deme.Ideal()), tag: tagResult}
		if _, err := Run(alg, in, cfg, rt); err == nil {
			t.Errorf("%v: corrupted result payloads did not surface as an error", alg)
		} else if !strings.Contains(err.Error(), "malformed") {
			t.Errorf("%v: unexpected error: %v", alg, err)
		}
	}

	// Corrupted work messages: the worker counts and drops them, the
	// master recovers every span locally — sequential-identical result.
	cfg := chaosConfig()
	cfg.Processors = 3
	tel := telemetry.New(nil, nil)
	cfg.Telemetry = tel
	rt := &corruptingRuntime{inner: deme.NewSim(deme.Ideal()), tag: tagWork}
	res, err := Run(Synchronous, in, cfg, rt)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, in, res, cfg.MaxEvaluations)
	if tel.Load(telemetry.MalformedMsgs) == 0 {
		t.Error("workers counted no malformed work messages")
	}
	seqCfg := chaosConfig()
	seq, err := Run(Sequential, in, seqCfg, deme.NewSim(deme.Ideal()))
	if err != nil {
		t.Fatal(err)
	}
	sameSearch(t, "corrupted work vs sequential", seq, res)
}

// TestFaultyRunRecordsOneDemeRun runs a traced search on a fault-injecting
// runtime: the decorator calls its inner backend directly, so the run
// records one "deme.run" span, opened by RunContext, and the search equals
// the fault-free one on the same backend.
func TestFaultyRunRecordsOneDemeRun(t *testing.T) {
	in := testInstance(t, 20)
	cfg := chaosConfig()
	cfg.Processors = 3
	plans := map[int]deme.FaultPlan{deme.WildcardProc: {ClockSkew: 0.1, Seed: 5}}
	tr := trace.New(0)
	ctx := trace.NewContext(context.Background(), tr, nil)
	res, err := RunContext(ctx, Synchronous, in, cfg, deme.NewFaulty(deme.NewSim(deme.Ideal()), plans))
	if err != nil {
		t.Fatal(err)
	}
	spans, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped %d spans", dropped)
	}
	runs := 0
	for _, d := range spans {
		if d.Name == "deme.run" {
			runs++
		}
	}
	if runs != 1 {
		t.Errorf("deme.run spans = %d, want 1", runs)
	}
	ref, err := Run(Synchronous, in, cfg, deme.NewSim(deme.Ideal()))
	if err != nil {
		t.Fatal(err)
	}
	sameSearch(t, "faulty vs plain", ref, res)
}
