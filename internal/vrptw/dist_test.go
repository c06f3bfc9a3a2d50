package vrptw

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/rng"
)

// sameAsMatrix fails t unless in.Dist(i, j) has the bits of m's entry
// (i, j) for every ordered pair of sites, the diagonal included.
func sameAsMatrix(t *testing.T, what string, in *Instance, m refMatrix) {
	t.Helper()
	if m.n != len(in.Sites) {
		t.Fatalf("%s: instance has %d sites, reference matrix %d", what, len(in.Sites), m.n)
	}
	for i := 0; i < m.n; i++ {
		for j := 0; j < m.n; j++ {
			got, want := in.Dist(i, j), m.dist[i*m.n+j]
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: Dist(%d,%d) = %v (%#x), matrix %v (%#x)",
					what, i, j, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestDistMatchesMatrixReference holds Dist, in both orientations, to the
// frozen matrix of dist_ref_test.go bit for bit: on the six classes at
// N = 10, 100 and 400, on a Solomon-parsed instance, and after every step
// of random chains of AddSite, RemoveSite, UpdateWindow and UpdateDemand,
// whose reference matrices are derived the way the primitives derived
// theirs.
func TestDistMatchesMatrixReference(t *testing.T) {
	for _, class := range []Class{R1, C1, RC1, R2, C2, RC2} {
		for _, n := range []int{10, 100, 400} {
			in, err := Generate(GenConfig{Class: class, N: n, Seed: uint64(n) + 3})
			if err != nil {
				t.Fatal(err)
			}
			sameAsMatrix(t, fmt.Sprintf("%s N=%d", class, n), in, refFill(in.Sites))
		}
	}

	gen, err := Generate(GenConfig{Class: RC2, N: 100, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSolomon(&buf, gen); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseSolomon(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sameAsMatrix(t, "Solomon text", parsed, refFill(parsed.Sites))

	for x, base := range []*Instance{gen, parsed} {
		r := rng.New(uint64(x) + 1)
		in, m := base, refFill(base.Sites)
		for step := 0; step < 60; step++ {
			var (
				op  string
				err error
			)
			id := 1 + r.Intn(in.N())
			s := in.Sites[id]
			switch r.Intn(4) {
			case 0:
				// A new site at a fresh point, or on top of an existing one.
				add := Site{X: r.Float64()*120 - 10, Y: r.Float64() * 100, Demand: 1, Due: in.Horizon(), Service: 5}
				if r.Intn(4) == 0 {
					add.X, add.Y = s.X, s.Y
				}
				op = fmt.Sprintf("AddSite(%g, %g)", add.X, add.Y)
				var d *Instance
				if d, err = in.AddSite(add); err == nil {
					in, m = d, refAddSite(m, in.Sites, add)
				}
			case 1:
				op = fmt.Sprintf("RemoveSite(%d)", id)
				var d *Instance
				if d, err = in.RemoveSite(id); err == nil {
					in, m = d, refRemoveSite(m, id)
				}
			case 2:
				op = fmt.Sprintf("UpdateWindow(%d)", id)
				in, err = in.UpdateWindow(id, s.Ready, s.Due+r.Float64()*10)
			default:
				op = fmt.Sprintf("UpdateDemand(%d)", id)
				in, err = in.UpdateDemand(id, s.Demand/2)
			}
			if err != nil {
				t.Fatalf("chain %d step %d: %s: %v", x, step, op, err)
			}
			sameAsMatrix(t, fmt.Sprintf("chain %d step %d, after %s", x, step, op), in, m)
		}
	}
}

// TestInstanceFootprint bounds the bytes New and the four mutation
// primitives allocate for a 2,000-customer instance. Its distance matrix
// alone would be 32 MB; the instance keeps its sites, 24 bytes of
// coordinates and departure time per site, about 0.2 MB at most. The
// bound is 1 MB.
func TestInstanceFootprint(t *testing.T) {
	const bound = 1 << 20
	gen, err := Generate(GenConfig{Class: R1, N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(f func() error) uint64 {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := f()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	sites := slices.Clone(gen.Sites)
	var in *Instance
	for _, c := range []struct {
		name string
		f    func() error
	}{
		{"New", func() (err error) {
			in, err = New(gen.Name, sites, gen.Vehicles, gen.Capacity)
			return err
		}},
		{"AddSite", func() error {
			_, err := in.AddSite(Site{X: 1, Y: 2, Demand: 1, Due: in.Horizon()})
			return err
		}},
		{"RemoveSite", func() error {
			_, err := in.RemoveSite(1000)
			return err
		}},
		{"UpdateWindow", func() error {
			_, err := in.UpdateWindow(1000, 0, in.Horizon())
			return err
		}},
		{"UpdateDemand", func() error {
			_, err := in.UpdateDemand(1000, 0)
			return err
		}},
	} {
		got := allocated(c.f)
		t.Logf("%s at N=2000: %d KB", c.name, got>>10)
		if got > bound {
			t.Errorf("%s at N=2000 allocated %d KB, want under %d KB", c.name, got>>10, bound>>10)
		}
	}
}
