package vrptw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(GenConfig{Class: R1, N: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(GenConfig{Class: R1, N: 50, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Sites {
		if a.Sites[i] != b.Sites[i] {
			t.Fatalf("site %d differs between identical configs", i)
		}
	}
	c, err := Generate(GenConfig{Class: R1, N: 50, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 1; i < len(a.Sites); i++ {
		if a.Sites[i].X == c.Sites[i].X {
			same++
		}
	}
	if same == len(a.Sites)-1 {
		t.Fatal("different seeds produced identical geometry")
	}
}

func TestGenerateAllClassesValid(t *testing.T) {
	for _, class := range []Class{R1, C1, RC1, R2, C2, RC2} {
		for _, n := range []int{20, 100} {
			in, err := Generate(GenConfig{Class: class, N: n, Seed: 3})
			if err != nil {
				t.Fatalf("%v N=%d: %v", class, n, err)
			}
			if in.N() != n {
				t.Fatalf("%v: N() = %d, want %d", class, in.N(), n)
			}
			for i := 1; i <= n; i++ {
				if !in.Reachable(i) {
					t.Errorf("%v N=%d: customer %d unreachable", class, n, i)
				}
				s := in.Sites[i]
				// A vehicle arriving at the window start must be
				// able to return before the horizon ends.
				if s.Ready+s.Service+in.Dist(i, 0) > in.Horizon()+1e-9 {
					t.Errorf("%v N=%d: customer %d cannot return to depot in time", class, n, i)
				}
			}
		}
	}
}

func TestGenerateCapacityDefaults(t *testing.T) {
	cases := []struct {
		class Class
		want  float64
	}{{R1, 200}, {C1, 200}, {RC1, 200}, {R2, 1000}, {C2, 700}, {RC2, 1000}}
	for _, tc := range cases {
		in, err := Generate(GenConfig{Class: tc.class, N: 40, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if in.Capacity != tc.want {
			t.Errorf("%v: capacity %g, want %g", tc.class, in.Capacity, tc.want)
		}
	}
}

func TestGenerateWindowWidthByType(t *testing.T) {
	width := func(c Class) float64 {
		in, err := Generate(GenConfig{Class: c, N: 100, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, s := range in.Sites[1:] {
			sum += s.Due - s.Ready
		}
		return sum / float64(in.N())
	}
	if w1, w2 := width(R1), width(R2); w1*2 > w2 {
		t.Errorf("R2 windows (%.1f) should be much wider than R1 (%.1f)", w2, w1)
	}
	if w1, w2 := width(C1), width(C2); w1*2 > w2 {
		t.Errorf("C2 windows (%.1f) should be much wider than C1 (%.1f)", w2, w1)
	}
}

func TestGenerateClusteredGeometry(t *testing.T) {
	// Clustered instances should have much smaller mean nearest-neighbor
	// distance than random ones of the same size.
	nn := func(c Class) float64 {
		in, err := Generate(GenConfig{Class: c, N: 100, Seed: 8})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := 1; i <= in.N(); i++ {
			best := math.Inf(1)
			for j := 1; j <= in.N(); j++ {
				if i != j && in.Dist(i, j) < best {
					best = in.Dist(i, j)
				}
			}
			sum += best
		}
		return sum / float64(in.N())
	}
	if c, r := nn(C1), nn(R1); c > 0.7*r {
		t.Errorf("C1 mean NN distance %.2f not clearly below R1's %.2f", c, r)
	}
}

func TestGenerateFleetSuffices(t *testing.T) {
	for _, class := range []Class{R1, R2, C1, C2, RC1, RC2} {
		in, err := Generate(GenConfig{Class: class, N: 60, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if in.Vehicles < in.MinVehicles() {
			t.Errorf("%v: fleet %d below capacity bound %d", class, in.Vehicles, in.MinVehicles())
		}
	}
}

func TestGenerateWindowDensity(t *testing.T) {
	in, err := Generate(GenConfig{Class: R1, N: 200, Seed: 4, WindowDensity: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	unwindowed := 0
	for _, s := range in.Sites[1:] {
		if s.Ready == 0 && s.Due > in.Horizon()*0.5 {
			unwindowed++
		}
	}
	if unwindowed < 50 || unwindowed > 150 {
		t.Errorf("with density 0.5, got %d/200 unwindowed customers", unwindowed)
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	if _, err := Generate(GenConfig{Class: R1, N: 0}); err == nil {
		t.Error("accepted N=0")
	}
	if _, err := Generate(GenConfig{Class: Class(99), N: 10}); err == nil {
		t.Error("accepted invalid class")
	}
	if _, err := Generate(GenConfig{Class: R1, N: 10, WindowDensity: 1.5}); err == nil {
		t.Error("accepted density > 1")
	}
}

func TestParseClass(t *testing.T) {
	for i, name := range classNames {
		c, err := ParseClass(name)
		if err != nil || c != Class(i) {
			t.Errorf("ParseClass(%q) = %v, %v", name, c, err)
		}
	}
	if c, err := ParseClass("rc2"); err != nil || c != RC2 {
		t.Errorf("ParseClass is not case-insensitive: %v, %v", c, err)
	}
	if _, err := ParseClass("X9"); err == nil {
		t.Error("ParseClass accepted unknown class")
	}
}

func TestGeneratePropertyAlwaysValid(t *testing.T) {
	f := func(seed uint64, rawN uint16, rawClass uint8) bool {
		n := 5 + int(rawN%120)
		class := Class(rawClass % 6)
		in, err := Generate(GenConfig{Class: class, N: n, Seed: seed})
		if err != nil {
			return false
		}
		// New already validates; re-check the generator-specific
		// guarantee that every customer is individually serviceable.
		for i := 1; i <= in.N(); i++ {
			if !in.Reachable(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// BenchmarkGenerate measures one instance build at the benchmark's shape,
// R1 with 400 customers: placement, windows, validation and the
// coordinate and departure tables, as a job does once at submission.
func BenchmarkGenerate(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Generate(GenConfig{Class: R1, N: 400, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
