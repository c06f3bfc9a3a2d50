package vrptw

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/rng"
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

	// Shift a window (membership, score and admissibility of arcs into
	// the site all change). Most rows are carried over unchanged, sharing
	// the parent row's storage.
	tight := in.Sites[17]
	d, err := in.UpdateWindow(17, tight.Ready+30, tight.Ready+45)
	if err != nil {
		t.Fatal(err)
	}
	checkDistances(t, "UpdateWindow", d)
	for _, k := range ks {
		sameLists(t, "UpdateWindow", d.NeighborLists(k), rebuilt(t, d, k), len(d.Sites))
		shared := 0
		for i, row := range d.NeighborLists(k).lists {
			if p := in.NeighborLists(k).lists[i]; len(row) > 0 && len(p) > 0 && &row[0] == &p[0] {
				shared++
			}
		}
		if 2*shared <= len(d.Sites) {
			t.Fatalf("UpdateWindow shares %d of %d k=%d rows with its parent — not incremental", shared, len(d.Sites), k)
		}
	}

	// Widen a window on the already-mutated instance (chained mutations).
	d2, err := d.UpdateWindow(17, 0, d.Horizon())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		sameLists(t, "UpdateWindow widen", d2.NeighborLists(k), rebuilt(t, d2, k), len(d2.Sites))
	}

	// Change a demand: every list set must be shared with the parent.
	d3, err := d2.UpdateDemand(9, d2.Sites[9].Demand+5)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		if d3.NeighborLists(k) != d2.NeighborLists(k) {
			t.Fatalf("UpdateDemand did not share the k=%d lists; demand is score-neutral", k)
		}
		sameLists(t, "UpdateDemand", d3.NeighborLists(k), rebuilt(t, d3, k), len(d3.Sites))
	}

	// Add a customer near the depot.
	site := Site{X: d3.Sites[0].X + 3, Y: d3.Sites[0].Y - 2, Demand: 7, Ready: 50, Due: d3.Horizon() * 0.8, Service: 10}
	d4, err := d3.AddSite(site)
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

	// Cancel a customer: indices above it shift down.
	d5, err := d4.RemoveSite(33)
	if err != nil {
		t.Fatal(err)
	}
	if d5.N() != d4.N()-1 {
		t.Fatalf("RemoveSite: N = %d, want %d", d5.N(), d4.N()-1)
	}
	checkDistances(t, "RemoveSite", d5)
	for i, s := range d5.Sites {
		old := d4.Sites[i]
		if i >= 33 {
			old = d4.Sites[i+1]
		}
		if old.ID = i; s != old {
			t.Fatalf("RemoveSite: site %d is %+v, want %+v", i, s, old)
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
	if _, err := in.UpdateDemand(3, in.Capacity+1); err == nil {
		t.Fatal("UpdateDemand over capacity accepted")
	}
	if _, err := in.UpdateWindow(3, 50, 10); err == nil {
		t.Fatal("UpdateWindow with due < ready accepted")
	}
	if _, err := in.UpdateWindow(0, 0, 10); err == nil {
		t.Fatal("UpdateWindow on the depot accepted")
	}
	if _, err := in.RemoveSite(0); err == nil {
		t.Fatal("RemoveSite on the depot accepted")
	}
	if _, err := in.RemoveSite(in.N() + 1); err == nil {
		t.Fatal("RemoveSite out of range accepted")
	}
	if _, err := in.AddSite(Site{ID: 3}); err == nil {
		t.Fatal("AddSite with an existing ID accepted")
	}
}

// FuzzDerivedListsMatchBuild runs a chain of the four mutation primitives
// on a generated instance of 40–80 customers whose neighbor lists are
// cached for k = 1, 3, 8 and N+10 (rows shorter than k), and after every
// step holds each list set the derived instance carries to a fresh build
// on its sites, and the parent to what it held before the step. Each op
// byte picks a step: its low two bits the primitive; bit 2 an arrival on
// top of an existing customer with its window (every arc into the two
// then ties on score, so the index decides their order), or else a
// target among such twins; bit 3 a window copied from the target's twin.
// The lists must be carried, not rebuilt: UpdateDemand shares the
// parent's list sets, and a row that holds the touched site in neither
// instance (and, after a removal, no renumbered member) shares the
// parent row's storage.
func FuzzDerivedListsMatchBuild(f *testing.F) {
	f.Add(uint64(1), []byte{0, 1, 2, 3})
	f.Add(uint64(2), []byte{4, 6, 14, 6, 14, 6, 14, 2, 1, 14})
	f.Add(uint64(3), []byte{4, 4, 14, 10, 6, 14, 5, 0, 2, 3, 1, 2, 14, 6, 14})
	f.Add(uint64(11), []byte{2, 2, 2, 1, 1, 0, 0, 3, 2, 1})
	f.Add(uint64(12), []byte{4, 6, 14, 6, 14, 4, 6, 14, 6, 14, 7, 6, 14})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		if len(ops) > 32 {
			ops = ops[:32]
		}
		r := rng.New(seed)
		in, err := Generate(GenConfig{Class: Class(r.Intn(6)), N: 40 + r.Intn(41), Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ks := []int{1, 3, 8, in.N() + 10}
		for _, k := range ks {
			in.NeighborLists(k)
		}
		for step, op := range ops {
			sites := slices.Clone(in.Sites)
			rows := map[int][][]int32{}
			for _, k := range ks {
				for _, row := range in.nbrs[k].lists {
					rows[k] = append(rows[k], slices.Clone(row))
				}
			}
			id := 1 + r.Intn(in.N())
			if tw := twinned(in); op&4 != 0 && op%4 != 0 && len(tw) > 0 {
				id = tw[r.Intn(len(tw))]
			}
			s := in.Sites[id]
			// The touched site is the parent's site old and the derived
			// instance's site cur; -1 where it has none.
			old, cur := id, id
			var (
				d    *Instance
				what string
			)
			switch op % 4 {
			case 0:
				add := Site{X: r.Float64() * 100, Y: r.Float64() * 100, Service: 10}
				add.Ready = r.Float64() * in.Horizon() * 0.9
				add.Due = add.Ready + r.Float64()*(in.Horizon()-add.Ready)
				if op&4 != 0 {
					add = Site{X: s.X, Y: s.Y, Ready: s.Ready, Due: s.Due, Service: s.Service}
				}
				what = fmt.Sprintf("AddSite(%+v)", add)
				d, err = in.AddSite(add)
				old, cur = -1, len(in.Sites)
			case 1:
				what = fmt.Sprintf("RemoveSite(%d)", id)
				d, err = in.RemoveSite(id)
				cur = -1
			case 2:
				ready := r.Float64() * in.Horizon() * 0.9
				due := ready + r.Float64()*(in.Horizon()-ready)
				for j, o := range in.Sites {
					if op&8 != 0 && j != id && j > 0 && o.X == s.X && o.Y == s.Y {
						ready, due = o.Ready, o.Due
					}
				}
				what = fmt.Sprintf("UpdateWindow(%d, %g, %g)", id, ready, due)
				d, err = in.UpdateWindow(id, ready, due)
			default:
				what = fmt.Sprintf("UpdateDemand(%d)", id)
				d, err = in.UpdateDemand(id, s.Demand/2)
			}
			if err != nil {
				t.Fatalf("step %d: %s: %v", step, what, err)
			}
			what = fmt.Sprintf("step %d, %s", step, what)

			if !slices.Equal(in.Sites, sites) {
				t.Fatalf("%s changed the parent's sites", what)
			}
			fresh, err := New(d.Name, slices.Clone(d.Sites), d.Vehicles, d.Capacity)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range ks {
				parent := in.nbrs[k]
				for i, row := range rows[k] {
					if !slices.Equal(parent.lists[i], row) {
						t.Fatalf("%s changed the parent's k=%d row %d: %v, was %v", what, k, i, parent.lists[i], row)
					}
				}
				got, want := d.nbrs[k], fresh.NeighborLists(k)
				if got == nil {
					t.Fatalf("%s carried no k=%d lists", what, k)
				}
				for i := range d.Sites {
					if !slices.Equal(got.lists[i], want.lists[i]) {
						t.Fatalf("%s: k=%d row %d is %v, a fresh build has %v", what, k, i, got.lists[i], want.lists[i])
					}
				}
				if op%4 == 3 {
					if got != parent {
						t.Fatalf("%s did not share the parent's k=%d lists", what, k)
					}
					continue
				}
				for i, drow := range got.lists {
					if i == cur {
						continue
					}
					oi := i
					if cur < 0 && i >= old {
						oi++
					}
					prow := parent.lists[oi]
					kept := len(drow) > 0 &&
						!slices.Contains(prow, int32(old)) && !slices.Contains(drow, int32(cur)) &&
						(cur >= 0 || !slices.ContainsFunc(prow, func(j int32) bool { return int(j) > old }))
					if kept && &drow[0] != &prow[0] {
						t.Fatalf("%s copied k=%d row %d, which holds the touched site in neither instance", what, k, i)
					}
				}
			}
			in = d
		}
	})
}

// twinned returns the customers of in that share their coordinates with
// another customer.
func twinned(in *Instance) []int {
	var out []int
	for i := 1; i < len(in.Sites); i++ {
		for j := 1; j < len(in.Sites); j++ {
			if j != i && in.Sites[j].X == in.Sites[i].X && in.Sites[j].Y == in.Sites[i].Y {
				out = append(out, i)
				break
			}
		}
	}
	return out
}
