package deme

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

// randomProgram builds a message-passing program from a seed: every
// process does a pseudo-random mix of computes, sends to random targets,
// polls and timed receives, then drains what is still queued. Every
// receive is timed, so every program ends.
func randomProgram(seed uint64, procs int) func(Proc) {
	return func(p Proc) {
		r := rng.New(seed ^ uint64(p.ID())<<32)
		for step := 0; step < 20; step++ {
			switch r.Intn(4) {
			case 0:
				p.Compute(r.Float64() * 0.1)
			case 1:
				p.Send(r.Intn(procs), step, p.ID()*100+step, 64)
			case 2:
				p.TryRecv()
			case 3:
				p.RecvTimeout(r.Float64() * 0.05)
			}
		}
		// Drain whatever is still queued.
		for {
			if _, ok := p.RecvTimeout(0.01); !ok {
				return
			}
		}
	}
}

// TestSimRandomProgramsDeterministic runs arbitrary programs twice on the
// simulator and demands identical makespans — the core reproducibility
// guarantee of the backend.
func TestSimRandomProgramsDeterministic(t *testing.T) {
	f := func(seed uint64, rawProcs uint8) bool {
		procs := 2 + int(rawProcs%6)
		run := func() float64 {
			s := NewSim(Origin3800())
			if err := s.Run(context.Background(), procs, randomProgram(seed, procs)); err != nil {
				return -1
			}
			return s.Elapsed()
		}
		e1, e2 := run(), run()
		return e1 >= 0 && e1 == e2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestGoroutineRandomProgramsComplete runs the same arbitrary programs on
// the real-concurrency backend and demands termination without error.
func TestGoroutineRandomProgramsComplete(t *testing.T) {
	f := func(seed uint64, rawProcs uint8) bool {
		procs := 2 + int(rawProcs%6)
		g := NewGoroutine()
		return g.Run(context.Background(), procs, randomProgram(seed, procs)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestSimClocksNeverRegress checks monotonicity of Now() through every
// operation mix.
func TestSimClocksNeverRegress(t *testing.T) {
	s := NewSim(Origin3800())
	err := s.Run(context.Background(), 3, func(p Proc) {
		r := rng.New(uint64(p.ID()) + 7)
		last := p.Now()
		check := func() {
			if now := p.Now(); now < last {
				t.Errorf("proc %d: clock regressed %g -> %g", p.ID(), last, now)
			} else {
				last = now
			}
		}
		for i := 0; i < 50; i++ {
			switch r.Intn(4) {
			case 0:
				p.Compute(r.Float64())
			case 1:
				p.Send((p.ID()+1)%3, 0, nil, 32)
			case 2:
				p.TryRecv()
			case 3:
				p.RecvTimeout(0.01)
			}
			check()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}
