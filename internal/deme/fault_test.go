package deme

import (
	"context"
	"math"
	"strings"
	"testing"
)

// pumpReceive drains messages with a timed receive until the deadline
// passes without traffic, returning the count.
func pumpReceive(p Proc, window float64) int {
	got := 0
	for {
		if _, ok := p.RecvTimeout(window); !ok {
			return got
		}
		got++
	}
}

func TestFaultyDropIsSeededAndDeterministic(t *testing.T) {
	run := func() int {
		ft := NewFaulty(NewSim(Ideal()), map[int]FaultPlan{1: {DropProb: 0.5, Seed: 9}})
		got := 0
		err := ft.Run(context.Background(), 2, func(p Proc) {
			if p.ID() == 0 {
				for i := 0; i < 200; i++ {
					p.Send(1, 1, i, 0)
				}
				return
			}
			got = pumpReceive(p, 10)
		})
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed runs received %d vs %d messages", a, b)
	}
	if a == 0 || a == 200 {
		t.Fatalf("DropProb 0.5 delivered %d of 200 messages", a)
	}
}

func TestFaultyDuplicatesEveryMessage(t *testing.T) {
	ft := NewFaulty(NewSim(Ideal()), map[int]FaultPlan{1: {DupProb: 1, Seed: 3}})
	got := 0
	err := ft.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			for i := 0; i < 5; i++ {
				p.Send(1, 1, i, 0)
			}
			return
		}
		got = pumpReceive(p, 10)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 10 {
		t.Fatalf("DupProb 1 delivered %d messages, want 10", got)
	}
}

func TestFaultyDelayHoldsMessagesBack(t *testing.T) {
	ft := NewFaulty(NewSim(Ideal()), map[int]FaultPlan{1: {DelayProb: 1, DelayMax: 10, Seed: 5}})
	got := 0
	var firstAt float64
	err := ft.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			for i := 0; i < 5; i++ {
				p.Send(1, 1, i, 0)
			}
			return
		}
		for {
			if _, ok := p.RecvTimeout(50); !ok {
				return
			}
			if got == 0 {
				firstAt = p.Now()
			}
			got++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("delayed messages lost: got %d of 5", got)
	}
	if firstAt <= 0 {
		t.Fatalf("first delivery at %g, want a positive delay on the ideal machine", firstAt)
	}
}

func TestFaultyCrashSilencesProcess(t *testing.T) {
	ft := NewFaulty(NewSim(Ideal()), map[int]FaultPlan{1: {CrashAt: 5}})
	var deadSeen bool
	var lastClock float64
	err := ft.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 1 {
			for {
				p.Compute(1)
				lastClock = p.Now()
			}
		}
		p.Compute(20)
		deadSeen = !p.Alive(1)
	})
	if err != nil {
		t.Fatalf("a crash fault must look like a normal return, got %v", err)
	}
	if !deadSeen {
		t.Error("Alive(1) still true after the crash time")
	}
	if lastClock > 5 {
		t.Errorf("crashed process observed clock %g past CrashAt 5", lastClock)
	}
}

func TestFaultyCrashInterruptsBlockedReceive(t *testing.T) {
	ft := NewFaulty(NewSim(Ideal()), map[int]FaultPlan{0: {CrashAt: 7}})
	err := ft.Run(context.Background(), 1, func(p Proc) {
		p.RecvTimeout(longWait) // would wait a million seconds without the crash
		t.Error("receive returned instead of crashing")
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultyStallFreezesOnce(t *testing.T) {
	ft := NewFaulty(NewSim(Ideal()), map[int]FaultPlan{0: {StallAt: 5, StallFor: 100}})
	var now float64
	err := ft.Run(context.Background(), 1, func(p Proc) {
		p.Compute(6) // no checkpoint crossing yet at entry (t=0)
		p.Compute(1) // entry checkpoint at t=6 serves the stall
		p.Compute(1) // one-shot: no second stall
		now = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(now-108) > 1e-9 {
		t.Fatalf("clock after stall = %g, want 108", now)
	}
}

func TestFaultyClockSkew(t *testing.T) {
	ft := NewFaulty(NewSim(Ideal()), map[int]FaultPlan{WildcardProc: {ClockSkew: 0.5}})
	var now float64
	err := ft.Run(context.Background(), 1, func(p Proc) {
		p.Compute(10)
		now = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(now-15) > 1e-9 {
		t.Fatalf("skewed clock reads %g after 10s of work, want 15", now)
	}
	// Elapsed reports true runtime, not the skewed view.
	if math.Abs(ft.Elapsed()-10) > 1e-9 {
		t.Fatalf("Elapsed = %g, want 10", ft.Elapsed())
	}
}

func TestFaultyInertPlanUsesRawProc(t *testing.T) {
	ft := NewFaulty(NewSim(Ideal()), map[int]FaultPlan{0: {}})
	err := ft.Run(context.Background(), 1, func(p Proc) {
		if _, wrapped := p.(*faultyProc); wrapped {
			t.Error("an inert plan must not pay the interception overhead")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFaultyPanicsStillPropagate(t *testing.T) {
	ft := NewFaulty(NewSim(Ideal()), map[int]FaultPlan{0: {DropProb: 0.1}})
	err := ft.Run(context.Background(), 1, func(p Proc) { panic("boom") })
	if err == nil {
		t.Fatal("a genuine panic must still surface as a run error")
	}
}

func TestFaultyOnGoroutineBackend(t *testing.T) {
	ft := NewFaulty(NewGoroutine(), map[int]FaultPlan{1: {DropProb: 0.3, Seed: 2}})
	got := 0
	err := ft.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			for i := 0; i < 50; i++ {
				p.Send(1, 1, i, 0)
			}
			return
		}
		for {
			m, ok := p.RecvTimeout(0.05)
			if !ok {
				if !p.Alive(0) {
					return
				}
				continue
			}
			_ = m
			got++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got == 0 || got >= 50 {
		t.Fatalf("goroutine backend delivered %d of 50 with DropProb 0.3", got)
	}
}

func TestGoroutineAlive(t *testing.T) {
	g := NewGoroutine()
	err := g.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 1 {
			return // dies immediately
		}
		for p.Alive(1) {
			if _, ok := p.RecvTimeout(0.01); ok {
				t.Error("unexpected message")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvTimeoutNeedsFiniteTimeout holds every backend to a finite
// receive deadline: a body that asks for a non-finite timeout fails the
// run instead of timing out at once or waiting forever.
func TestRecvTimeoutNeedsFiniteTimeout(t *testing.T) {
	backends := []struct {
		name string
		rt   func() Runtime
	}{
		{"sim", func() Runtime { return NewSim(Ideal()) }},
		{"goroutine", func() Runtime { return NewGoroutine() }},
		{"faulty-sim", func() Runtime {
			return NewFaulty(NewSim(Ideal()), map[int]FaultPlan{WildcardProc: {ClockSkew: 0.5}})
		}},
	}
	for _, b := range backends {
		for _, timeout := range []float64{math.Inf(1), math.NaN(), math.Inf(-1)} {
			err := b.rt().Run(context.Background(), 2, func(p Proc) {
				if p.ID() == 1 {
					p.RecvTimeout(timeout)
				}
			})
			if err == nil || !strings.Contains(err.Error(), "RecvTimeout needs a finite timeout") {
				t.Errorf("%s: RecvTimeout(%v) ended the run with %v, want the finite-timeout error", b.name, timeout, err)
			}
		}
	}
}

// outOfRangePlans are fault specs no run can execute, each with the value
// its error must name.
var outOfRangePlans = []struct{ spec, value string }{
	{"1:skew=NaN", "ClockSkew NaN"},
	{"1:stall@0.5+Inf", "StallFor +Inf"},
	{"*:skew=-1", "ClockSkew -1"},
	{"0:skew=-Inf", "ClockSkew -Inf"},
	{"0:drop=1.5", "DropProb 1.5"},
	{"0:dup=-0.1", "DupProb -0.1"},
	{"0:delay=NaN/1", "DelayProb NaN"},
	{"0:delay=0.5/-1", "DelayMax -1"},
	{"0:crash@-2", "CrashAt -2"},
	{"0:crash@Inf", "CrashAt +Inf"},
	{"0:stall@-1+2", "StallAt -1"},
}

func TestFaultyRefusesOutOfRangePlans(t *testing.T) {
	for _, bad := range outOfRangePlans {
		_, perr := ParseFaultPlans(bad.spec)
		if perr == nil || !strings.Contains(perr.Error(), bad.value) {
			t.Errorf("ParseFaultPlans(%q) = %v, want an error naming %s", bad.spec, perr, bad.value)
		}
		// The same plan built in Go fails Faulty.Run before any body runs.
		var plan FaultPlan
		_, clauses, _ := strings.Cut(bad.spec, ":")
		if err := parseFault(&plan, clauses); err != nil {
			t.Fatal(err)
		}
		ran := false
		err := NewFaulty(NewSim(Ideal()), map[int]FaultPlan{0: plan}).Run(context.Background(), 1, func(Proc) { ran = true })
		if err == nil || !strings.Contains(err.Error(), bad.value) || ran {
			t.Errorf("Faulty.Run with %+v: err %v, body ran %v; want an error naming %s and no body", plan, err, ran, bad.value)
		}
	}
}

// FuzzParseFaultPlans holds ParseFaultPlans to the plans a run can
// execute: every field of an accepted plan is finite and in range, and
// Faulty.Run accepts the plans.
func FuzzParseFaultPlans(f *testing.F) {
	f.Add("1:crash@5;0:drop=0.2,dup=0.1,delay=0.3/2.5,tags=2+4,seed=77;*:skew=0.1,stall@3+9")
	for _, bad := range outOfRangePlans {
		f.Add(bad.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plans, err := ParseFaultPlans(spec)
		if err != nil {
			return
		}
		for id, p := range plans {
			for _, v := range []float64{p.DropProb, p.DupProb, p.DelayProb} {
				if !(v >= 0 && v <= 1) {
					t.Fatalf("plan %d = %+v: probability %v outside [0, 1]", id, p, v)
				}
			}
			for _, v := range []float64{p.DelayMax, p.CrashAt, p.StallAt, p.StallFor} {
				if !(v >= 0) || math.IsInf(v, 1) {
					t.Fatalf("plan %d = %+v: time %v negative or not finite", id, p, v)
				}
			}
			if !(p.ClockSkew > -1) || math.IsInf(p.ClockSkew, 1) {
				t.Fatalf("plan %d = %+v: skew %v not finite and > -1", id, p, p.ClockSkew)
			}
		}
		if err := NewFaulty(NewSim(Ideal()), plans).Run(context.Background(), 1, func(Proc) {}); err != nil {
			t.Fatalf("Faulty.Run refused the parsed plans %+v: %v", plans, err)
		}
	})
}

func TestParseFaultPlans(t *testing.T) {
	plans, err := ParseFaultPlans("1:crash@5;0:drop=0.2,dup=0.1,delay=0.3/2.5,tags=2+4,seed=77;*:skew=0.1,stall@3+9")
	if err != nil {
		t.Fatal(err)
	}
	p1 := plans[1]
	if p1.CrashAt != 5 {
		t.Errorf("plan 1 = %+v, want CrashAt 5", p1)
	}
	p0 := plans[0]
	if p0.DropProb != 0.2 || p0.DupProb != 0.1 || p0.DelayProb != 0.3 || p0.DelayMax != 2.5 || p0.Seed != 77 {
		t.Errorf("plan 0 = %+v", p0)
	}
	if len(p0.FaultTags) != 2 || p0.FaultTags[0] != 2 || p0.FaultTags[1] != 4 {
		t.Errorf("plan 0 tags = %v, want [2 4]", p0.FaultTags)
	}
	w := plans[WildcardProc]
	if w.ClockSkew != 0.1 || w.StallAt != 3 || w.StallFor != 9 {
		t.Errorf("wildcard plan = %+v", w)
	}

	for _, bad := range []string{"", "nocolon", "x:crash@5", "0:crash@x", "0:stall@3", "0:delay=0.5", "0:wat=1", "0:tags=a"} {
		if _, err := ParseFaultPlans(bad); err == nil {
			t.Errorf("ParseFaultPlans(%q) accepted an invalid spec", bad)
		}
	}
}
