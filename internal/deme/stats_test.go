package deme

import (
	"context"
	"math"
	"testing"
)

func TestSimStats(t *testing.T) {
	m := Machine{Latency: 1}
	s := NewSim(m)
	err := s.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			p.Compute(2)
			p.Send(1, 1, nil, 128)
			p.Send(1, 2, nil, 128)
		} else {
			p.RecvTimeout(longWait)
			p.RecvTimeout(longWait)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st) != 2 {
		t.Fatalf("got %d stats, want 2", len(st))
	}
	if math.Abs(st[0].Compute-2) > 1e-9 {
		t.Errorf("proc 0 compute = %g, want 2", st[0].Compute)
	}
	if st[0].MsgsSent != 2 || st[0].BytesSent != 256 {
		t.Errorf("proc 0 sent %d msgs / %d bytes, want 2 / 256", st[0].MsgsSent, st[0].BytesSent)
	}
	if st[1].MsgsReceived != 2 {
		t.Errorf("proc 1 received %d, want 2", st[1].MsgsReceived)
	}
	// Proc 1 waited for a message arriving at t=3 (compute 2 + latency 1).
	if st[1].Blocked < 2.5 {
		t.Errorf("proc 1 blocked %g, want >= 2.5", st[1].Blocked)
	}
	if st[0].End <= 0 || st[1].End <= 0 {
		t.Error("end times not recorded")
	}
	// Utilization: proc 0 computed 2 of its ~2 lifetime.
	if u := st[0].Utilization(); u < 0.9 || u > 1.0 {
		t.Errorf("proc 0 utilization %g, want ~1", u)
	}
	if u := st[1].Utilization(); u > 0.1 {
		t.Errorf("proc 1 utilization %g, want ~0", u)
	}
}

func TestSimStatsJitteredComputeCounted(t *testing.T) {
	m := Origin3800()
	s := NewSim(m)
	err := s.Run(context.Background(), 1, func(p Proc) {
		for i := 0; i < 10; i++ {
			p.Compute(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()[0]
	// The charged compute equals the whole clock (nothing else ran).
	if math.Abs(st.Compute-st.End) > 1e-9 {
		t.Errorf("compute %g != end %g on a compute-only process", st.Compute, st.End)
	}
	if u := st.Utilization(); math.Abs(u-1) > 1e-9 {
		t.Errorf("utilization = %g, want 1", u)
	}
}

func TestGoroutineStats(t *testing.T) {
	g := NewGoroutine()
	err := g.Run(context.Background(), 2, func(p Proc) {
		if p.ID() == 0 {
			p.Send(1, 1, nil, 64)
		} else {
			p.RecvTimeout(longWait)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st[0].MsgsSent != 1 || st[0].BytesSent != 64 {
		t.Errorf("sender stats wrong: %+v", st[0])
	}
	if st[1].MsgsReceived != 1 {
		t.Errorf("receiver stats wrong: %+v", st[1])
	}
	if st[0].End <= 0 {
		t.Error("end time missing")
	}
}

func TestUtilizationZeroLifetime(t *testing.T) {
	if (ProcStats{}).Utilization() != 0 {
		t.Error("zero lifetime should give zero utilization")
	}
}
