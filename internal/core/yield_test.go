package core

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/deme"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// TestSearcherYieldsToWokenGoroutines pins the searcher's yield rule at
// GOMAXPROCS 1, where no CPU is spare: a goroutine the searcher wakes —
// here a reader standing in for the service's SSE writer — runs within
// about yieldEveryFull or a step, not when Go preempts the searcher after
// 10 ms. On one processor the 90th percentile of its wait must stay under
// 5 ms on both backends; without the yield it is 16–20 ms. The process
// can also lose its CPU to other processes while a stamp waits, which no
// yield prevents, so a run whose p90 misses is measured again, up to
// three runs: without the yield every run misses.
func TestSearcherYieldsToWokenGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		rt   deme.Runtime
	}{
		{"sim", deme.NewSim(deme.Origin3800())},
		{"goroutine", deme.NewGoroutine()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for run := 1; ; run++ {
				waits := wakeWaits(t, in, tc.rt, 50)
				p50, p90 := waits[len(waits)/2], waits[len(waits)*9/10]
				t.Logf("run %d: wake-to-run wait over %d samples: p50 %v, p90 %v, max %v",
					run, len(waits), p50, p90, waits[len(waits)-1])
				if p90 < 5*time.Millisecond {
					return
				}
				if run == 3 {
					t.Fatalf("p90 wait %v for a goroutine the searcher woke, want under 5ms", p90)
				}
			}
		})
	}
}

// TestSearcherYieldsWithNoCPUSpare pins the rule where search processes
// fill every CPU of a multi-processor run: at GOMAXPROCS 2 two sequential
// searches on the goroutine backend register two processes, so no CPU is
// spare and no helper runs, and a goroutine one searcher wakes waits for
// that searcher's next yield, as two daemon jobs' SSE writers do on 2
// CPUs. Its p90 wait must stay under 400 µs; at one yield a millisecond,
// the rule while a CPU is spare, it is 0.85–1 ms (under the race
// detector a step outlasts a millisecond, so both rules yield every step
// there). Runs that miss are measured again, as above.
func TestSearcherYieldsWithNoCPUSpare(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 100, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The second search fills the other CPU. The measured one starts
	// after its first event, by which time it has registered.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once sync.Once
	tel := telemetry.New(nil, nil)
	tel.SetHook(func(telemetry.Event) { once.Do(func() { close(started) }) })
	cfg := DefaultConfig()
	cfg.MaxEvaluations = math.MaxInt // cancelled when the measurement ends
	cfg.Telemetry = tel
	done := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, Sequential, in, cfg, deme.NewGoroutine())
		done <- err
	}()
	select {
	case <-started:
	case err := <-done:
		t.Fatalf("second search ended before its first event: %v", err)
	}
	for run := 1; ; run++ {
		waits := wakeWaits(t, in, deme.NewGoroutine(), 50)
		p50, p90 := waits[len(waits)/2], waits[len(waits)*9/10]
		t.Logf("run %d: wake-to-run wait over %d samples: p50 %v, p90 %v, max %v",
			run, len(waits), p50, p90, waits[len(waits)-1])
		if p90 < 400*time.Microsecond {
			break
		}
		if run == 3 {
			t.Errorf("p90 wait %v for a goroutine the searcher woke with no CPU spare, want under 400µs", p90)
			break
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Errorf("second search: %v", err)
	}
}

// wakeWaits runs an unbounded sequential search on rt whose telemetry
// hook stamps the wall time into a one-slot channel; a reader goroutine
// records how long each stamp waited to be read and cancels the run after
// n samples. It returns the waits in ascending order, without the first:
// the init event's stamp is sent before the reader has first run, so it
// times the start-up, not a wake.
func wakeWaits(t *testing.T, in *vrptw.Instance, rt deme.Runtime, n int) []time.Duration {
	t.Helper()
	stamps := make(chan time.Time, 1)
	tel := telemetry.New(nil, nil)
	tel.SetHook(func(telemetry.Event) {
		select {
		case stamps <- time.Now():
		default: // the reader has not taken the previous stamp yet
		}
	})
	cfg := DefaultConfig()
	cfg.MaxEvaluations = math.MaxInt // the reader ends the run
	cfg.SampleEvery = cfg.NeighborhoodSize
	cfg.Seed = 5
	cfg.Telemetry = tel

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var waits []time.Duration
	read := make(chan struct{})
	go func() {
		defer close(read)
		defer cancel()
		for len(waits) <= n {
			select {
			case at := <-stamps:
				waits = append(waits, time.Since(at))
			case <-ctx.Done():
				return
			}
		}
	}()
	if _, err := RunContext(ctx, Sequential, in, cfg, rt); err != nil {
		t.Fatal(err)
	}
	<-read
	if len(waits) <= n {
		t.Fatalf("run ended after %d of %d samples", len(waits)-1, n)
	}
	waits = waits[1:]
	sort.Slice(waits, func(a, b int) bool { return waits[a] < waits[b] })
	return waits
}
