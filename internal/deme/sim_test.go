package deme

import (
	"context"
	"math"
	"testing"
)

// longWait is a receive timeout no test outlasts: virtual seconds on Sim,
// wall seconds on Goroutine.
const longWait = 1e6

func TestSimComputeAdvancesClock(t *testing.T) {
	s := NewSim(Ideal())
	var now float64
	err := s.Run(context.Background(), 1, func(p Proc) {
		p.Compute(1.5)
		p.Compute(0.5)
		now = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if now != 2.0 {
		t.Errorf("Now = %g, want 2.0", now)
	}
	if s.Elapsed() != 2.0 {
		t.Errorf("Elapsed = %g, want 2.0", s.Elapsed())
	}
}

func TestSimJitterBounds(t *testing.T) {
	m := Ideal()
	m.Jitter = 0.1
	m.Seed = 7
	s := NewSim(m)
	clocks := make([]float64, 4)
	err := s.Run(context.Background(), 4, func(p Proc) {
		p.Compute(1)
		clocks[p.ID()] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	allEqual := true
	for i, c := range clocks {
		if c < 0.9-1e-12 || c > 1.1+1e-12 {
			t.Errorf("proc %d clock %g outside jitter bounds", i, c)
		}
		if c != clocks[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Error("jitter produced identical clocks for all processes")
	}
}

func TestSimPingPongTiming(t *testing.T) {
	m := Machine{Latency: 2}
	s := NewSim(m)
	var bRecvAt, aRecvAt float64
	err := s.Run(context.Background(), 2, func(p Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 1, "ping", 0)
			if _, ok := p.RecvTimeout(longWait); !ok {
				t.Error("A: expected pong")
			}
			aRecvAt = p.Now()
		case 1:
			if _, ok := p.RecvTimeout(longWait); !ok {
				t.Error("B: expected ping")
			}
			bRecvAt = p.Now()
			p.Send(0, 2, "pong", 0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bRecvAt != 2 {
		t.Errorf("B received at %g, want 2", bRecvAt)
	}
	if aRecvAt != 4 {
		t.Errorf("A received at %g, want 4", aRecvAt)
	}
	if s.Elapsed() != 4 {
		t.Errorf("Elapsed = %g, want 4", s.Elapsed())
	}
}

func TestSimSendCharges(t *testing.T) {
	m := Machine{SendOverhead: 0.5, Bandwidth: 100} // 200 bytes -> 2s
	s := NewSim(m)
	var after float64
	err := s.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, nil, 200)
			after = p.Now()
		} else {
			p.RecvTimeout(longWait)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-2.5) > 1e-12 {
		t.Errorf("sender clock %g, want 2.5", after)
	}
}

func TestSimRecvOverheadCharged(t *testing.T) {
	m := Machine{Latency: 1, RecvOverhead: 0.25}
	s := NewSim(m)
	var at float64
	err := s.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, nil, 0)
		} else {
			p.RecvTimeout(longWait)
			at = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(at-1.25) > 1e-12 {
		t.Errorf("receiver clock %g, want 1.25", at)
	}
}

func TestSimTryRecvCausality(t *testing.T) {
	m := Machine{Latency: 1}
	s := NewSim(m)
	err := s.Run(context.Background(), 2, func(p Proc) {
		switch p.ID() {
		case 0:
			p.Send(1, 1, nil, 0) // arrives at t=1
		case 1:
			p.Compute(0.5)
			if _, ok := p.TryRecv(); ok {
				t.Error("message visible before its arrival time")
			}
			p.Compute(1.0) // clock 1.5 > arrival 1
			if _, ok := p.TryRecv(); !ok {
				t.Error("message not visible after its arrival time")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimRecvTimeout(t *testing.T) {
	s := NewSim(Ideal())
	var ok bool
	var now float64
	err := s.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			p.Compute(10) // never sends
			return
		}
		_, ok = p.RecvTimeout(3)
		now = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("timeout returned a message")
	}
	if now != 3 {
		t.Errorf("woke at %g, want 3", now)
	}
}

func TestSimRecvTimeoutBeatenByMessage(t *testing.T) {
	m := Machine{Latency: 1}
	s := NewSim(m)
	err := s.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, nil, 0)
			return
		}
		msg, ok := p.RecvTimeout(100)
		if !ok || msg.Tag != 1 {
			t.Error("message should beat the timeout")
		}
		if p.Now() != 1 {
			t.Errorf("woke at %g, want 1", p.Now())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimFIFOAndTieOrder(t *testing.T) {
	s := NewSim(Ideal()) // zero latency: all arrive at t=0
	var tags []int
	err := s.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			for i := 1; i <= 5; i++ {
				p.Send(1, i, nil, 0)
			}
			return
		}
		for i := 0; i < 5; i++ {
			m, ok := p.RecvTimeout(longWait)
			if !ok {
				t.Error("missing message")
				return
			}
			tags = append(tags, m.Tag)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tag := range tags {
		if tag != i+1 {
			t.Fatalf("messages reordered: %v", tags)
		}
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() (float64, []int) {
		m := Origin3800()
		s := NewSim(m)
		order := make([]int, 0, 32)
		err := s.Run(context.Background(), 4, func(p Proc) {
			if p.ID() == 0 {
				for received := 0; received < 9; {
					msg, ok := p.RecvTimeout(longWait)
					if !ok {
						break
					}
					order = append(order, msg.From*100+msg.Tag)
					received++
				}
				return
			}
			for i := 0; i < 3; i++ {
				p.Compute(0.05 * float64(p.ID()))
				p.Send(0, i, nil, 512)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Elapsed(), order
	}
	e1, o1 := run()
	e2, o2 := run()
	if e1 != e2 {
		t.Errorf("elapsed differs: %g vs %g", e1, e2)
	}
	if len(o1) != len(o2) {
		t.Fatalf("order lengths differ")
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("message order differs at %d: %v vs %v", i, o1, o2)
		}
	}
}

func TestSimPanicPropagates(t *testing.T) {
	s := NewSim(Ideal())
	err := s.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 1 {
			panic("boom")
		}
	})
	if err == nil {
		t.Fatal("panic not reported")
	}
}

func TestSimRunValidation(t *testing.T) {
	if err := NewSim(Ideal()).Run(context.Background(), 0, func(Proc) {}); err == nil {
		t.Error("Run(0) should fail")
	}
}

func TestSimSelfSend(t *testing.T) {
	m := Machine{Latency: 1}
	s := NewSim(m)
	err := s.Run(context.Background(), 1, func(p Proc) {
		p.Send(p.ID(), 7, "self", 0)
		msg, ok := p.RecvTimeout(longWait)
		if !ok || msg.Tag != 7 {
			t.Error("self-send failed")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSimNegativeComputePanics(t *testing.T) {
	s := NewSim(Ideal())
	err := s.Run(context.Background(), 1, func(p Proc) { p.Compute(-1) })
	if err == nil {
		t.Fatal("negative compute should panic and be reported")
	}
}
