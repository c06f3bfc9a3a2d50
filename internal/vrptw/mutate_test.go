package vrptw

import (
	"math"
	"testing"
)

// rebuilt constructs a fresh instance from the derived sites and returns
// its from-scratch neighbor lists — the reference every incremental
// repair must match exactly.
func rebuilt(t *testing.T, d *Instance, k int) *NeighborLists {
	t.Helper()
	sites := make([]Site, len(d.Sites))
	copy(sites, d.Sites)
	ref, err := New(d.Name, sites, d.Vehicles, d.Capacity)
	if err != nil {
		t.Fatalf("reference New: %v", err)
	}
	return ref.NeighborLists(k)
}

func sameLists(t *testing.T, what string, got, want *NeighborLists, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		g, w := got.Of(i), want.Of(i)
		if len(g) != len(w) {
			t.Fatalf("%s: row %d has %d members, want %d", what, i, len(g), len(w))
		}
		for x := range g {
			if g[x] != w[x] {
				t.Fatalf("%s: row %d member %d is %d, want %d", what, i, x, g[x], w[x])
			}
		}
	}
}

func checkDistances(t *testing.T, what string, d *Instance) {
	t.Helper()
	n := len(d.Sites)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dx := d.Sites[i].X - d.Sites[j].X
			dy := d.Sites[i].Y - d.Sites[j].Y
			if want := math.Sqrt(dx*dx + dy*dy); d.Dist(i, j) != want {
				t.Fatalf("%s: Dist(%d,%d) = %g, want %g", what, i, j, d.Dist(i, j), want)
			}
		}
	}
	for i, s := range d.Sites {
		if d.DepartReady(i) != s.Ready+s.Service {
			t.Fatalf("%s: DepartReady(%d) = %g, want %g", what, i, d.DepartReady(i), s.Ready+s.Service)
		}
	}
}

func TestMutateNeighborRepairExact(t *testing.T) {
	in, err := Generate(GenConfig{Class: R1, N: 80, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ks := []int{5, 12}
	for _, k := range ks {
		in.NeighborLists(k) // warm the cache the repairs operate on
	}

	// Shift a window (the busiest repair path: membership, score and
	// admissibility of arcs into the site all change).
	var st RepairStats
	tight := in.Sites[17]
	d, st, err := in.UpdateWindow(17, tight.Ready+30, tight.Ready+45)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, "UpdateWindow", d)
	for _, k := range ks {
		sameLists(t, "UpdateWindow", d.NeighborLists(k), rebuilt(t, d, k), len(d.Sites))
	}
	if st.ListsRebuilt >= len(d.Sites) {
		t.Fatalf("UpdateWindow rebuilt %d rows of %d per k — not incremental", st.ListsRebuilt, len(d.Sites))
	}

	// Widen a window on the already-mutated instance (chained mutations).
	d2, st, err := d.UpdateWindow(17, 0, d.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		sameLists(t, "UpdateWindow widen", d2.NeighborLists(k), rebuilt(t, d2, k), len(d2.Sites))
	}

	// Change a demand: every list must be shared with the parent.
	d3, st, err := d2.UpdateDemand(9, d2.Sites[9].Demand+5)
	if err != nil {
		t.Fatal(err)
	}
	if st.ListsPatched != 0 || st.ListsRebuilt != 0 {
		t.Fatalf("UpdateDemand patched %d rebuilt %d rows; demand is score-neutral", st.ListsPatched, st.ListsRebuilt)
	}
	for _, k := range ks {
		if &d3.NeighborLists(k).lists[0] == nil {
			t.Fatal("unreachable")
		}
		sameLists(t, "UpdateDemand", d3.NeighborLists(k), rebuilt(t, d3, k), len(d3.Sites))
	}

	// Add a customer near the depot.
	site := Site{X: d3.Sites[0].X + 3, Y: d3.Sites[0].Y - 2, Demand: 7, Ready: 50, Due: d3.Horizon() * 0.8, Service: 10}
	d4, st, err := d3.AddSite(site)
	if err != nil {
		t.Fatal(err)
	}
	if d4.N() != d3.N()+1 {
		t.Fatalf("AddSite: N = %d, want %d", d4.N(), d3.N()+1)
	}
	if d4.Sites[d4.N()].ID != d4.N() {
		t.Fatalf("AddSite: new site ID %d, want %d", d4.Sites[d4.N()].ID, d4.N())
	}
	checkDistances(t, "AddSite", d4)
	for _, k := range ks {
		sameLists(t, "AddSite", d4.NeighborLists(k), rebuilt(t, d4, k), len(d4.Sites))
	}
	if st.ListsRebuilt != len(ks) {
		t.Fatalf("AddSite rebuilt %d rows, want exactly the new site's row per k (%d)", st.ListsRebuilt, len(ks))
	}

	// Cancel a customer: indices above it shift down.
	d5, remap, st, err := d4.RemoveSite(33)
	if err != nil {
		t.Fatal(err)
	}
	if d5.N() != d4.N()-1 {
		t.Fatalf("RemoveSite: N = %d, want %d", d5.N(), d4.N()-1)
	}
	if remap[32] != 32 || remap[34] != 33 {
		t.Fatalf("RemoveSite remap: got 32->%d 34->%d", remap[32], remap[34])
	}
	if _, ok := remap[33]; ok {
		t.Fatal("RemoveSite remap still maps the removed customer")
	}
	checkDistances(t, "RemoveSite", d5)
	for i, s := range d5.Sites {
		if s.ID != i {
			t.Fatalf("RemoveSite: site %d has ID %d", i, s.ID)
		}
	}
	for _, k := range ks {
		sameLists(t, "RemoveSite", d5.NeighborLists(k), rebuilt(t, d5, k), len(d5.Sites))
	}

	// The parent chain is untouched throughout.
	if in.N() != 80 || len(in.nbrs) != len(ks) {
		t.Fatal("mutation modified the parent instance")
	}
	for _, k := range ks {
		sameLists(t, "parent", in.NeighborLists(k), rebuilt(t, in, k), len(in.Sites))
	}
}

func TestMutateValidation(t *testing.T) {
	in, err := Generate(GenConfig{Class: R1, N: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := in.UpdateDemand(3, in.Capacity+1); err == nil {
		t.Fatal("UpdateDemand over capacity accepted")
	}
	if _, _, err := in.UpdateWindow(3, 50, 10); err == nil {
		t.Fatal("UpdateWindow with due < ready accepted")
	}
	if _, _, err := in.UpdateWindow(0, 0, 10); err == nil {
		t.Fatal("UpdateWindow on the depot accepted")
	}
	if _, _, _, err := in.RemoveSite(0); err == nil {
		t.Fatal("RemoveSite on the depot accepted")
	}
	if _, _, _, err := in.RemoveSite(in.N() + 1); err == nil {
		t.Fatal("RemoveSite out of range accepted")
	}
	if _, _, err := in.AddSite(Site{ID: 3}); err == nil {
		t.Fatal("AddSite with an existing ID accepted")
	}
}
