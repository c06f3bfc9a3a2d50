package vrptw

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

func TestNeighborLists(t *testing.T) {
	in, err := Generate(GenConfig{Class: R1, N: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	nl := in.NeighborLists(k)
	if nl.K != k {
		t.Fatalf("K: got %d, want %d", nl.K, k)
	}
	score := func(i, j int) float64 {
		arrive := in.DepartReady(i) + in.Dist(i, j)
		wait := in.Sites[j].Ready - arrive
		if wait < 0 {
			wait = 0
		}
		return in.Dist(i, j) + wait
	}
	for i := 0; i <= in.N(); i++ {
		list := nl.Of(i)
		if len(list) > k {
			t.Fatalf("site %d: list length %d exceeds k=%d", i, len(list), k)
		}
		admissible := 0
		for j := 1; j <= in.N(); j++ {
			if j != i && in.DepartReady(i)+in.Dist(i, j) <= in.Sites[j].Due {
				admissible++
			}
		}
		want := k
		if admissible < k {
			want = admissible
		}
		if len(list) != want {
			t.Fatalf("site %d: list length %d, want min(k, admissible)=%d", i, len(list), want)
		}
		for x, j := range list {
			if int(j) == i || j < 1 || int(j) > in.N() {
				t.Fatalf("site %d: invalid neighbor %d", i, j)
			}
			if arrive := in.DepartReady(i) + in.Dist(i, int(j)); arrive > in.Sites[j].Due {
				t.Fatalf("site %d: neighbor %d misses its due date (arrive %v > due %v)",
					i, j, arrive, in.Sites[j].Due)
			}
			if x > 0 {
				p := int(list[x-1])
				sp, sj := score(i, p), score(i, int(j))
				if sp > sj || (sp == sj && p > int(j)) {
					t.Fatalf("site %d: list not sorted by (score, index) at %d: %d then %d", i, x-1, p, j)
				}
			}
		}
		// Every admissible non-member must score no better than the worst
		// member — the list holds the k best arcs, not just k valid ones.
		if len(list) == k && admissible > k {
			worst := score(i, int(list[k-1]))
			member := map[int32]bool{}
			for _, j := range list {
				member[j] = true
			}
			for j := 1; j <= in.N(); j++ {
				if j == i || member[int32(j)] {
					continue
				}
				if in.DepartReady(i)+in.Dist(i, j) > in.Sites[j].Due {
					continue
				}
				if score(i, j) < worst {
					t.Fatalf("site %d: non-member %d scores %v, better than worst member %v",
						i, j, score(i, j), worst)
				}
			}
		}
	}
	if nl2 := in.NeighborLists(k); nl2 != nl {
		t.Fatal("NeighborLists not cached per k")
	}
	if nl3 := in.NeighborLists(k + 1); nl3 == nl {
		t.Fatal("different k returned the same lists")
	}
}

// matchReference compares every row of in's lists for k with the frozen
// row derivation of neighbors_ref_test.go.
func matchReference(t *testing.T, what string, in *Instance, nl *NeighborLists) {
	t.Helper()
	for i := range in.Sites {
		got, want := nl.Of(i), refNeighborRow(in, i, nl.K)
		if !slices.Equal(got, want) {
			t.Fatalf("%s k=%d: row %d is %v, reference %v", what, nl.K, i, got, want)
		}
	}
}

// TestNeighborListsMatchReference holds the lists — built from the arc
// bitset on generated instances, repaired incrementally on derived ones,
// and built from scratch on derived ones whose parent cached none — to
// the frozen copy of the per-arc row derivation, for k = 1, 20 and N.
func TestNeighborListsMatchReference(t *testing.T) {
	for _, class := range []Class{R1, C1, RC1, R2, C2, RC2} {
		for _, n := range []int{1, 37, 100} {
			in, err := Generate(GenConfig{Class: class, N: n, Seed: uint64(n) + 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 20, n} {
				matchReference(t, class.String(), in, in.NeighborLists(k))
			}
		}
	}

	// Customers on an integer grid with one window tie many scores, so
	// the (score, index) order decides rows.
	grid := []Site{{ID: 0, X: 5, Y: 5, Due: 1000}}
	for c := 1; c <= 80; c++ {
		grid = append(grid, Site{ID: c, X: float64(c % 9), Y: float64(c / 9), Demand: 1, Due: 1000, Service: 1})
	}
	in, err := New("grid", grid, 10, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 4, 20, in.N()} {
		matchReference(t, "grid", in, in.NeighborLists(k))
	}

	for _, cached := range []bool{true, false} {
		in, err := Generate(GenConfig{Class: RC1, N: 60, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		ks := []int{1, 20, in.N()}
		if cached {
			for _, k := range ks {
				in.NeighborLists(k)
			}
		}
		for _, d := range deriveAll(t, in) {
			for _, k := range ks {
				matchReference(t, fmt.Sprintf("%s (parent lists cached: %v)", d.name, cached), d.in, d.in.NeighborLists(k))
			}
		}
	}
}

type derived struct {
	name string
	in   *Instance
}

// deriveAll chains one of each mutation primitive onto in: a window
// tightened, a demand raised, a customer added, a customer removed.
func deriveAll(t *testing.T, in *Instance) []derived {
	t.Helper()
	tight := in.Sites[12]
	d1, _, err := in.UpdateWindow(12, tight.Ready+20, tight.Ready+25)
	if err != nil {
		t.Fatal(err)
	}
	d2, _, err := d1.UpdateDemand(7, d1.Sites[7].Demand+3)
	if err != nil {
		t.Fatal(err)
	}
	site := Site{X: d2.Sites[0].X + 5, Y: d2.Sites[0].Y + 1, Demand: 4, Ready: 30, Due: 60, Service: 10}
	d3, _, err := d2.AddSite(site)
	if err != nil {
		t.Fatal(err)
	}
	d4, _, _, err := d3.RemoveSite(20)
	if err != nil {
		t.Fatal(err)
	}
	return []derived{{"UpdateWindow", d1}, {"UpdateDemand", d2}, {"AddSite", d3}, {"RemoveSite", d4}}
}

// TestDistSymmetric checks that the distance matrix is symmetric bit for
// bit — Dist(i,j) and Dist(j,i) are the same float64 — on generated,
// Solomon-parsed and derived instances. I1 reads both of a customer's
// insertion distances from the customer's own row and relies on it.
func TestDistSymmetric(t *testing.T) {
	check := func(what string, in *Instance) {
		t.Helper()
		for i := range in.Sites {
			for j := range in.Sites {
				if math.Float64bits(in.Dist(i, j)) != math.Float64bits(in.Dist(j, i)) {
					t.Fatalf("%s: Dist(%d,%d) = %v, Dist(%d,%d) = %v", what, i, j, in.Dist(i, j), j, i, in.Dist(j, i))
				}
			}
		}
	}
	for _, class := range []Class{R1, C1, RC1, R2, C2, RC2} {
		in, err := Generate(GenConfig{Class: class, N: 60, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		check(class.String(), in)
		var buf bytes.Buffer
		if err := WriteSolomon(&buf, in); err != nil {
			t.Fatal(err)
		}
		parsed, err := ParseSolomon(&buf)
		if err != nil {
			t.Fatal(err)
		}
		check(class.String()+" via Solomon text", parsed)
		if class == R1 {
			in.NeighborLists(20)
			for _, d := range deriveAll(t, in) {
				check(d.name, d.in)
			}
		}
	}
}

// TestNeighborListsConcurrentFirstUse has goroutines ask a fresh instance
// for its lists and its arc bitset at once, in both orders, as the
// goroutine backend's searchers do: every caller must get the same single
// build of each.
func TestNeighborListsConcurrentFirstUse(t *testing.T) {
	in, err := Generate(GenConfig{Class: R1, N: 80, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	const g = 8
	lists := make([]*NeighborLists, g)
	arcs := make([]*ArcBits, g)
	var wg sync.WaitGroup
	for x := 0; x < g; x++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if x%2 == 0 {
				lists[x] = in.NeighborLists(20)
				arcs[x] = in.ArcBits()
			} else {
				arcs[x] = in.ArcBits()
				lists[x] = in.NeighborLists(20)
			}
		}()
	}
	wg.Wait()
	for x := 1; x < g; x++ {
		if lists[x] != lists[0] || arcs[x] != arcs[0] {
			t.Fatalf("goroutine %d got another build", x)
		}
	}
	if in.NeighborLists(20) != lists[0] || in.ArcBits() != arcs[0] {
		t.Fatal("a later request rebuilt the tables")
	}
	checkArcBits(t, "concurrent", in)
	matchReference(t, "concurrent", in, lists[0])
}

// BenchmarkNeighborLists measures the granular lists' first build at the
// benchmark's shape, R1 with 400 customers and k = 20, arc bitset
// included: each op builds the lists of a fresh copy of the instance
// (made outside the timer), as a job does once before its search.
func BenchmarkNeighborLists(b *testing.B) {
	in, err := Generate(GenConfig{Class: R1, N: 400, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		b.StopTimer()
		fresh, err := New(in.Name, in.Sites, in.Vehicles, in.Capacity)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		fresh.NeighborLists(20)
	}
}
