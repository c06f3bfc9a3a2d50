package vrptw

import (
	"math"
	"testing"
)

// tiny returns a minimal 4-customer instance used across tests.
func tiny(t *testing.T) *Instance {
	t.Helper()
	sites := []Site{
		{ID: 0, X: 50, Y: 50, Ready: 0, Due: 1000},
		{ID: 1, X: 60, Y: 50, Demand: 10, Ready: 0, Due: 900, Service: 10},
		{ID: 2, X: 40, Y: 50, Demand: 10, Ready: 50, Due: 500, Service: 10},
		{ID: 3, X: 50, Y: 60, Demand: 20, Ready: 0, Due: 900, Service: 10},
		{ID: 4, X: 50, Y: 40, Demand: 20, Ready: 100, Due: 800, Service: 10},
	}
	in, err := New("tiny", sites, 3, 40)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return in
}

func TestNewValid(t *testing.T) {
	in := tiny(t)
	if in.N() != 4 {
		t.Errorf("N = %d, want 4", in.N())
	}
	if in.PermLen() != 4+3+1 {
		t.Errorf("PermLen = %d, want 8", in.PermLen())
	}
	if got := in.Dist(1, 2); math.Abs(got-20) > 1e-12 {
		t.Errorf("Dist(1,2) = %g, want 20", got)
	}
	if got := in.Dist(0, 0); got != 0 {
		t.Errorf("Dist(0,0) = %g, want 0", got)
	}
	if in.Horizon() != 1000 {
		t.Errorf("Horizon = %g, want 1000", in.Horizon())
	}
	if in.TotalDemand() != 60 {
		t.Errorf("TotalDemand = %g, want 60", in.TotalDemand())
	}
	if in.MinVehicles() != 2 {
		t.Errorf("MinVehicles = %d, want 2", in.MinVehicles())
	}
}

func TestDistSymmetryAndTriangle(t *testing.T) {
	in, err := Generate(GenConfig{Class: R1, N: 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := len(in.Sites)
	for i := 0; i < n; i++ {
		if in.Dist(i, i) != 0 {
			t.Fatalf("Dist(%d,%d) != 0", i, i)
		}
		for j := 0; j < n; j++ {
			if in.Dist(i, j) != in.Dist(j, i) {
				t.Fatalf("asymmetric distance (%d,%d)", i, j)
			}
			for k := 0; k < n; k += 7 {
				if in.Dist(i, j) > in.Dist(i, k)+in.Dist(k, j)+1e-9 {
					t.Fatalf("triangle inequality violated at (%d,%d,%d)", i, k, j)
				}
			}
		}
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	good := func() []Site {
		return []Site{
			{ID: 0, X: 0, Y: 0, Ready: 0, Due: 100},
			{ID: 1, X: 1, Y: 1, Demand: 5, Ready: 0, Due: 100, Service: 1},
		}
	}
	cases := []struct {
		name     string
		sites    []Site
		vehicles int
		capacity float64
	}{
		{"no customers", good()[:1], 1, 10},
		{"no vehicles", good(), 0, 10},
		{"zero capacity", good(), 1, 0},
		{"depot demand", func() []Site { s := good(); s[0].Demand = 1; return s }(), 1, 10},
		{"bad ID", func() []Site { s := good(); s[1].ID = 7; return s }(), 1, 10},
		{"inverted window", func() []Site { s := good(); s[1].Ready = 50; s[1].Due = 10; return s }(), 1, 10},
		{"negative service", func() []Site { s := good(); s[1].Service = -1; return s }(), 1, 10},
		{"negative demand", func() []Site { s := good(); s[1].Demand = -1; return s }(), 1, 10},
		{"demand over capacity", good(), 1, 4},
		{"fleet too small", func() []Site {
			s := good()
			s = append(s, Site{ID: 2, X: 2, Y: 2, Demand: 9, Ready: 0, Due: 100})
			return s
		}(), 1, 10},
		{"NaN due date", func() []Site { s := good(); s[1].Due = math.NaN(); return s }(), 1, 10},
		{"NaN ready time", func() []Site { s := good(); s[1].Ready = math.NaN(); return s }(), 1, 10},
		{"infinite coordinate", func() []Site { s := good(); s[1].X = math.Inf(1); return s }(), 1, 10},
		{"infinite depot horizon", func() []Site { s := good(); s[0].Due = math.Inf(1); return s }(), 1, 10},
		{"NaN demand", func() []Site { s := good(); s[1].Demand = math.NaN(); return s }(), 1, 10},
		{"NaN capacity", good(), 1, math.NaN()},
		{"infinite capacity", good(), 1, math.Inf(1)},
	}
	for _, tc := range cases {
		if _, err := New(tc.name, tc.sites, tc.vehicles, tc.capacity); err == nil {
			t.Errorf("%s: New accepted invalid input", tc.name)
		}
	}
}

func TestReachable(t *testing.T) {
	sites := []Site{
		{ID: 0, X: 0, Y: 0, Ready: 0, Due: 1000},
		{ID: 1, X: 3, Y: 4, Demand: 1, Ready: 0, Due: 5, Service: 0},    // dist 5, due 5: reachable
		{ID: 2, X: 30, Y: 40, Demand: 1, Ready: 0, Due: 49, Service: 0}, // dist 50, due 49: not
	}
	in, err := New("reach", sites, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Reachable(1) {
		t.Error("customer 1 should be reachable")
	}
	if in.Reachable(2) {
		t.Error("customer 2 should not be reachable")
	}
}
