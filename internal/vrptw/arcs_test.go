package vrptw

import (
	"sync"
	"testing"
)

// checkArcBits compares every bit of in's arc bitset with the local
// time-window test it stands for.
func checkArcBits(t *testing.T, what string, in *Instance) {
	t.Helper()
	a := in.ArcBits()
	n := len(in.Sites)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := j == 0 || in.DepartReady(i)+in.Dist(i, j) <= in.Sites[j].Due
			if a.OK(i, j) != want {
				t.Fatalf("%s: arc %d->%d bit %v, predicate %v", what, i, j, a.OK(i, j), want)
			}
		}
	}
}

// TestArcBitsMatchPredicate checks the arc bitset bit for bit against the
// predicate on generated instances of every class and on instances derived
// by each mutation primitive — each derived instance builds its own bitset,
// never its parent's — and that the bitset is built once per instance.
func TestArcBitsMatchPredicate(t *testing.T) {
	for _, class := range []Class{R1, C1, RC1, R2, C2, RC2} {
		for _, n := range []int{1, 37, 100} {
			in, err := Generate(GenConfig{Class: class, N: n, Seed: uint64(n)})
			if err != nil {
				t.Fatal(err)
			}
			checkArcBits(t, class.String(), in)
			if in.ArcBits() != in.ArcBits() {
				t.Fatalf("%v N=%d: ArcBits rebuilt on a second request", class, n)
			}
		}
	}

	in, err := Generate(GenConfig{Class: R1, N: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	parent := in.ArcBits() // derived instances must not inherit it
	tight := in.Sites[12]
	d1, err := in.UpdateWindow(12, tight.Ready+20, tight.Ready+25)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := d1.UpdateDemand(7, d1.Sites[7].Demand+3)
	if err != nil {
		t.Fatal(err)
	}
	site := Site{X: d2.Sites[0].X + 5, Y: d2.Sites[0].Y + 1, Demand: 4, Ready: 30, Due: 60, Service: 10}
	d3, err := d2.AddSite(site)
	if err != nil {
		t.Fatal(err)
	}
	d4, err := d3.RemoveSite(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		in   *Instance
	}{{"UpdateWindow", d1}, {"UpdateDemand", d2}, {"AddSite", d3}, {"RemoveSite", d4}} {
		if d.in.ArcBits() == parent {
			t.Fatalf("%s: derived instance shares its parent's bitset", d.name)
		}
		checkArcBits(t, d.name, d.in)
	}
	checkArcBits(t, "parent", in)
}

// TestArcBitsConcurrentFirstUse has several goroutines — as the goroutine
// backend's searchers sharing one instance do — request the bitset of a
// fresh instance at once: all must get the same, fully built table.
func TestArcBitsConcurrentFirstUse(t *testing.T) {
	in, err := Generate(GenConfig{Class: RC1, N: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*ArcBits, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = in.ArcBits()
		}()
	}
	wg.Wait()
	for g, a := range got {
		if a != got[0] {
			t.Fatalf("goroutine %d got another bitset", g)
		}
	}
	checkArcBits(t, "concurrent", in)
}
