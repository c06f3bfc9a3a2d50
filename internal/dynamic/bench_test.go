package dynamic

import (
	"context"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/vrptw"
)

// benchConfig is the 400-customer mutation benchmark configuration: a
// short granular run with checkpoint barriers close enough together that
// the setup run reaches the bench barrier in a few iterations.
func benchConfig(seed uint64) core.Config {
	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = 3000
	cfg.NeighborhoodSize = 100
	cfg.RestartIterations = 50
	cfg.CheckpointEvery = 4
	cfg.GranularK = 20
	cfg.Seed = seed
	return cfg
}

// benchCheckpoint runs the configuration once and returns the decoded
// checkpoint cut at the requested barrier — the warmed search state every
// Apply in the benchmark loop splices against.
func benchCheckpoint(b *testing.B, in *vrptw.Instance, cfg core.Config, barrier int) *core.Checkpoint {
	b.Helper()
	var ck *core.Checkpoint
	cfg.CheckpointSink = func(c *core.Checkpoint) error {
		if c.Barrier == barrier {
			data, err := core.EncodeCheckpoint(c)
			if err != nil {
				return err
			}
			ck, err = core.DecodeCheckpoint(data)
			return err
		}
		return nil
	}
	if _, err := core.Run(core.Sequential, in, cfg, deme.NewSim(deme.Origin3800())); err != nil {
		b.Fatal(err)
	}
	if ck == nil {
		b.Fatalf("setup run never reached barrier %d", barrier)
	}
	return ck
}

// reportPercentiles attaches per-op latency percentiles to the benchmark
// output, so the p99 (<10ms target) is read instead of the mean.
func reportPercentiles(b *testing.B, durs []time.Duration) {
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	pick := func(q float64) float64 {
		i := int(q * float64(len(durs)-1))
		return float64(durs[i].Nanoseconds())
	}
	b.ReportMetric(pick(0.50), "p50-ns")
	b.ReportMetric(pick(0.99), "p99-ns")
}

// benchApply is the shared splice+repair loop: per op it primes a fresh
// schedule with the batch at the checkpoint's barrier and applies it.
// Apply derives a new instance and a new checkpoint, so the inputs are
// reusable across ops.
func benchApply(b *testing.B, in *vrptw.Instance, ck *core.Checkpoint, muts []Mutation) {
	ctx := context.Background()
	durs := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewSchedule()
		if err := sc.AddAt(ck.Barrier, muts); err != nil {
			b.Fatal(err)
		}
		sc.HaltAt(ck.Barrier)
		start := time.Now()
		_, _, err := sc.Apply(ctx, in, ck)
		durs = append(durs, time.Since(start))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportPercentiles(b, durs)
}

// BenchmarkSpliceRepairCancel400 is the acceptance benchmark: one
// cancel_customer spliced into a warmed 400-customer checkpoint —
// incremental neighbor-list repair plus the repair of every stored
// solution. The tracked target is p99 < 10ms.
func BenchmarkSpliceRepairCancel400(b *testing.B) {
	in := testInstance(b, 400)
	ck := benchCheckpoint(b, in, benchConfig(11), 2)
	benchApply(b, in, ck, []Mutation{
		{Version: Version, Op: CancelCustomer, Customer: 123},
	})
}

// BenchmarkSpliceRepairBatch400 applies the four-op batch (window shift,
// demand bump, cancel, arrival) in one epoch.
func BenchmarkSpliceRepairBatch400(b *testing.B) {
	in := testInstance(b, 400)
	ck := benchCheckpoint(b, in, benchConfig(11), 2)
	benchApply(b, in, ck, testBatch(in))
}

// BenchmarkMutationReplay400 times a complete live mutated run — the halt
// at the barrier, the splice, and the warm restart to the budget — and
// reports lost-iters: the iterations the live run executed beyond what an
// offline resume of the mutated checkpoint replays. The halt-barrier
// protocol cuts the segment exactly at the checkpoint, so the measured
// value is 0 — no search work is discarded by a warm restart.
func BenchmarkMutationReplay400(b *testing.B) {
	in := testInstance(b, 400)
	cfg := benchConfig(11)
	const epoch = 2
	muts := []Mutation{{Version: Version, Op: CancelCustomer, Customer: 123}}

	// Offline reference: barrier-2 checkpoint, applied, resumed to budget.
	ck := benchCheckpoint(b, in, cfg, epoch)
	off := NewSchedule()
	if err := off.AddAt(epoch, muts); err != nil {
		b.Fatal(err)
	}
	off.HaltAt(epoch)
	newIn, newCk, err := off.Apply(context.Background(), in, ck)
	if err != nil {
		b.Fatal(err)
	}
	resumeRes, err := core.ResumeContext(context.Background(), newCk, newIn, cfg, deme.NewSim(deme.Origin3800()))
	if err != nil {
		b.Fatal(err)
	}

	var lost int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		live := NewSchedule()
		if err := live.AddAt(epoch, muts); err != nil {
			b.Fatal(err)
		}
		liveCfg := cfg
		liveCfg.Dynamic = live
		liveRes, err := core.Run(core.Sequential, in, liveCfg, deme.NewSim(deme.Origin3800()))
		if err != nil {
			b.Fatal(err)
		}
		lost = liveRes.Iterations - resumeRes.Iterations
	}
	b.StopTimer()
	b.ReportMetric(float64(lost), "lost-iters")
}
