// Instance mutation primitives for dynamic (online) VRPTW: derive a new
// Instance from a running one with a customer added, cancelled, or its
// window or demand changed. Each primitive is copy-on-write — the parent
// instance is never touched (searchers may still be reading it) — builds
// the derived instance with New, and carries the parent's cached granular
// neighbor lists over by one rule (derive). The carried lists equal a
// fresh build on the derived instance (FuzzDerivedListsMatchBuild), which
// is what lets a mutated run replay deterministically.
package vrptw

import (
	"fmt"
	"maps"
	"slices"
	"sort"
)

// AddSite derives an instance with one new customer appended. The site's
// ID must be 0 (assigned here) or len(Sites) — new customers always take
// the next index, so existing customer IDs are stable.
func (in *Instance) AddSite(s Site) (*Instance, error) {
	n := len(in.Sites)
	if s.ID != 0 && s.ID != n {
		return nil, fmt.Errorf("vrptw: new site ID must be %d (next index), got %d", n, s.ID)
	}
	s.ID = n
	sites := make([]Site, n+1)
	copy(sites, in.Sites)
	sites[n] = s
	return in.derive(sites, -1, n)
}

// RemoveSite derives an instance with customer id cancelled. Customer
// indices above id shift down by one (the ID-equals-index invariant).
func (in *Instance) RemoveSite(id int) (*Instance, error) {
	n := len(in.Sites)
	if id < 1 || id >= n {
		return nil, fmt.Errorf("vrptw: cannot remove site %d (instance has customers 1..%d)", id, n-1)
	}
	sites := slices.Delete(slices.Clone(in.Sites), id, id+1)
	for i := id; i < len(sites); i++ {
		sites[i].ID = i
	}
	return in.derive(sites, id, -1)
}

// UpdateWindow derives an instance with customer id's service window
// changed to [ready, due].
func (in *Instance) UpdateWindow(id int, ready, due float64) (*Instance, error) {
	if id < 1 || id >= len(in.Sites) {
		return nil, fmt.Errorf("vrptw: cannot update site %d (instance has customers 1..%d)", id, len(in.Sites)-1)
	}
	sites := slices.Clone(in.Sites)
	sites[id].Ready, sites[id].Due = ready, due
	return in.derive(sites, id, id)
}

// UpdateDemand derives an instance with customer id's demand changed.
// Demand plays no part in arc scoring, so the derived instance shares
// every cached neighbor list set with the parent.
func (in *Instance) UpdateDemand(id int, demand float64) (*Instance, error) {
	if id < 1 || id >= len(in.Sites) {
		return nil, fmt.Errorf("vrptw: cannot update site %d (instance has customers 1..%d)", id, len(in.Sites)-1)
	}
	sites := slices.Clone(in.Sites)
	sites[id].Demand = demand
	return in.derive(sites, -1, -1)
}

// derive builds the instance of the given sites with New and carries in's
// cached neighbor lists over to it. The sites differ from in's in one
// site at most: in's site old and the derived instance's site cur, where
// old is -1 for an added site and cur is -1 for a removed one (whose
// removal shifts every later ID down by one); both are -1 when no arc
// changed, and every list set is shared. Otherwise only the arcs into
// and out of that site differ, so for each cached k the site's own row is
// re-derived, and every other row
//   - that held the site is re-derived: its backfill, the old (k+1)-th
//     arc, is recorded nowhere;
//   - that the site now ranks in gets it inserted at its rank (withArc);
//   - is kept otherwise, renumbered if the removal shifted its members.
func (in *Instance) derive(sites []Site, old, cur int) (*Instance, error) {
	d, err := New(in.Name, sites, in.Vehicles, in.Capacity)
	if err != nil {
		return nil, err
	}
	in.nbrMu.Lock()
	d.nbrs = maps.Clone(in.nbrs)
	in.nbrMu.Unlock()
	if old < 0 && cur < 0 {
		return d, nil
	}
	for k, nl := range d.nbrs {
		lists := make([][]int32, len(sites))
		for i := range lists {
			oi := i // the row's index in in
			if cur < 0 && i >= old {
				oi++
			}
			switch {
			case i == cur || old >= 0 && slices.Contains(nl.lists[oi], int32(old)):
				lists[i] = d.buildNeighborRow(i, k)
			case cur >= 0:
				lists[i] = d.withArc(i, nl.lists[oi], cur, k)
			default:
				lists[i] = renumber(nl.lists[oi], old)
			}
		}
		d.nbrs[k] = &NeighborLists{K: k, lists: lists}
	}
	return d, nil
}

// withArc returns row i with arc i -> j inserted at its rank in the
// (score, index) order the build uses, truncated to k members, or row
// itself when arcScore does not admit the arc or it ranks behind the last
// member of a full row. The row must not hold j.
func (in *Instance) withArc(i int, row []int32, j, k int) []int32 {
	score, ok := in.arcScore(i, j)
	if !ok {
		return row
	}
	ahead := func(x int) bool { // arc i -> j ranks ahead of row[x]
		s, _ := in.arcScore(i, int(row[x]))
		return score < s || score == s && int32(j) < row[x]
	}
	if len(row) == k && !ahead(k-1) {
		return row
	}
	pos := sort.Search(len(row), ahead)
	out := make([]int32, 0, len(row)+1)
	out = append(append(append(out, row[:pos]...), int32(j)), row[pos:]...)
	return out[:min(len(out), k)]
}

// renumber returns row with every member past the removed site old
// shifted down by one, or row itself when it has no such member.
func renumber(row []int32, old int) []int32 {
	if !slices.ContainsFunc(row, func(j int32) bool { return int(j) > old }) {
		return row
	}
	out := make([]int32, len(row))
	for x, j := range row {
		if int(j) > old {
			j--
		}
		out[x] = j
	}
	return out
}
