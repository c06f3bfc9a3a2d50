package core

import (
	"testing"

	"repro/internal/deme"
)

// benchCheckpointRun measures a complete sequential run on the simulator,
// checkpointing every `every` master iterations (0 = off) through a sink
// that pays the full cost of a durable snapshot short of the disk write:
// state capture, encoding, checksum. The Off/On pair measures the
// checkpointing overhead at the service's default interval against a <2%
// target.
func benchCheckpointRun(b *testing.B, every int) {
	in := testInstance(b, 100)
	cfg := smallConfig()
	cfg.MaxEvaluations = 100_000
	cfg.CheckpointEvery = every
	if every > 0 {
		cfg.CheckpointSink = func(ck *Checkpoint) error {
			_, err := EncodeCheckpoint(ck)
			return err
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Sequential, in, cfg, deme.NewSim(deme.Origin3800())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunCheckpointOff(b *testing.B) { benchCheckpointRun(b, 0) }

// BenchmarkRunCheckpointOn uses the solver service's default snapshot
// interval (service.DefaultCheckpointEvery = 500; the constant lives in
// internal/service, which this package cannot import).
func BenchmarkRunCheckpointOn(b *testing.B) { benchCheckpointRun(b, 500) }
