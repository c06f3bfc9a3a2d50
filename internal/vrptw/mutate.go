// Instance mutation primitives for dynamic (online) VRPTW: derive a new
// Instance from a running one with a customer added, cancelled, or its
// window/demand changed. Each primitive is copy-on-write — the parent
// instance is never touched (searchers may still be reading it) — and
// repairs the cached granular neighbor lists incrementally: only the rows
// whose top-k content can actually change are re-derived, every other row
// is either reused as-is or patched with a sorted insert/remove. The
// repaired lists are bit-identical to a from-scratch build on the derived
// instance (asserted by TestMutateNeighborRepairExact), which is what lets
// a mutated run replay deterministically.
package vrptw

import "fmt"

// RepairStats breaks down how the cached neighbor lists of one mutation
// were brought up to date, summed over every cached k. A full rebuild
// would show ListsRebuilt == rows·ks; the incremental repair keeps that
// term proportional to the sites the mutation actually touched.
type RepairStats struct {
	ListsReused  int // rows shared with the parent instance unchanged
	ListsPatched int // rows patched in place (sorted insert/remove/remap)
	ListsRebuilt int // rows re-derived from scratch
}

func (r *RepairStats) add(o RepairStats) {
	r.ListsReused += o.ListsReused
	r.ListsPatched += o.ListsPatched
	r.ListsRebuilt += o.ListsRebuilt
}

// shell copies the scalar fields of in into a fresh Instance with no
// sites, coordinates or neighbor cache.
func (in *Instance) shell() *Instance {
	return &Instance{Name: in.Name, Vehicles: in.Vehicles, Capacity: in.Capacity}
}

// snapshotNeighborCache returns the parent's cached neighbor lists under
// its cache lock, so a mutation can repair a consistent snapshot while
// searchers keep reading.
func (in *Instance) snapshotNeighborCache() map[int]*NeighborLists {
	in.nbrMu.Lock()
	defer in.nbrMu.Unlock()
	if len(in.nbrs) == 0 {
		return nil
	}
	out := make(map[int]*NeighborLists, len(in.nbrs))
	for k, nl := range in.nbrs {
		out[k] = nl
	}
	return out
}

// AddSite derives an instance with one new customer appended. The site's
// ID must be 0 (assigned here) or len(Sites) — new customers always take
// the next index, so existing customer IDs are stable. The sites,
// coordinates and departure times are copied with the new site appended,
// O(N), and every cached neighbor list is repaired by at most one sorted
// insert.
func (in *Instance) AddSite(s Site) (*Instance, RepairStats, error) {
	var st RepairStats
	n := len(in.Sites)
	if s.ID != 0 && s.ID != n {
		return nil, st, fmt.Errorf("vrptw: new site ID must be %d (next index), got %d", n, s.ID)
	}
	s.ID = n
	d := in.shell()
	d.Sites = make([]Site, n+1)
	copy(d.Sites, in.Sites)
	d.Sites[n] = s
	if err := d.validate(); err != nil {
		return nil, st, err
	}
	nn := n + 1
	d.xy = make([]point, nn)
	copy(d.xy, in.xy)
	d.xy[n] = point{s.X, s.Y}
	d.departReady = make([]float64, nn)
	copy(d.departReady, in.departReady)
	d.departReady[n] = s.Ready + s.Service

	for k, nl := range in.snapshotNeighborCache() {
		rep := &NeighborLists{K: k, lists: make([][]int32, nn)}
		for i := 0; i < n; i++ {
			list := nl.lists[i]
			score, ok := d.arcScore(i, n)
			switch {
			case !ok:
				rep.lists[i] = list
				st.ListsReused++
			case len(list) == k && !d.beatsLast(i, list, n, score):
				rep.lists[i] = list
				st.ListsReused++
			default:
				rep.lists[i] = d.insertSorted(i, list, int32(n), score, k)
				st.ListsPatched++
			}
		}
		rep.lists[n] = d.buildNeighborRow(n, k)
		st.ListsRebuilt++
		d.storeNeighborLists(k, rep)
	}
	return d, st, nil
}

// RemoveSite derives an instance with customer id cancelled. Customer
// indices above id shift down by one (the ID-equals-index invariant);
// the returned remap translates old customer IDs to new ones, with
// remap[id] == 0 marking the removed customer. Cached neighbor rows that
// merely referenced shifted IDs are remapped in place; only full rows
// that actually contained id are re-derived (their k-th best arc needs a
// backfill that cannot be known locally).
func (in *Instance) RemoveSite(id int) (*Instance, map[int]int, RepairStats, error) {
	var st RepairStats
	n := len(in.Sites)
	if id < 1 || id >= n {
		return nil, nil, st, fmt.Errorf("vrptw: cannot remove site %d (instance has customers 1..%d)", id, n-1)
	}
	d := in.shell()
	d.Sites = make([]Site, 0, n-1)
	remap := make(map[int]int, n-1)
	for i, s := range in.Sites {
		if i == id {
			continue
		}
		if i > id {
			s.ID = i - 1
		}
		remap[i] = s.ID
		d.Sites = append(d.Sites, s)
	}
	if err := d.validate(); err != nil {
		return nil, nil, st, err
	}
	nn := n - 1
	d.xy = make([]point, nn)
	copy(d.xy[:id], in.xy[:id])
	copy(d.xy[id:], in.xy[id+1:])
	d.departReady = make([]float64, nn)
	copy(d.departReady[:id], in.departReady[:id])
	copy(d.departReady[id:], in.departReady[id+1:])

	for k, nl := range in.snapshotNeighborCache() {
		rep := &NeighborLists{K: k, lists: make([][]int32, nn)}
		for ni := 0; ni < nn; ni++ {
			oi := ni
			if ni >= id {
				oi = ni + 1
			}
			list := nl.lists[oi]
			contains := false
			shifted := false
			for _, j := range list {
				if int(j) == id {
					contains = true
				} else if int(j) > id {
					shifted = true
				}
			}
			switch {
			case contains && len(list) == k:
				// The removed arc was in a full row: the backfill (the old
				// k+1-th best) is not recoverable locally.
				rep.lists[ni] = d.buildNeighborRow(ni, k)
				st.ListsRebuilt++
			case contains || shifted:
				out := make([]int32, 0, len(list))
				for _, j := range list {
					switch {
					case int(j) == id:
					case int(j) > id:
						out = append(out, j-1)
					default:
						out = append(out, j)
					}
				}
				rep.lists[ni] = out
				st.ListsPatched++
			default:
				rep.lists[ni] = list
				st.ListsReused++
			}
		}
		d.storeNeighborLists(k, rep)
	}
	return d, remap, st, nil
}

// UpdateWindow derives an instance with customer id's service window
// changed to [ready, due]. The coordinates are shared with the parent
// (geometry is unchanged); the customer's own neighbor row is re-derived
// (its earliest departure moved), and every other row is patched exactly:
// the only arc whose score or admissibility changed is the one into id.
func (in *Instance) UpdateWindow(id int, ready, due float64) (*Instance, RepairStats, error) {
	var st RepairStats
	n := len(in.Sites)
	if id < 1 || id >= n {
		return nil, st, fmt.Errorf("vrptw: cannot update site %d (instance has customers 1..%d)", id, n-1)
	}
	d := in.shell()
	d.Sites = make([]Site, n)
	copy(d.Sites, in.Sites)
	d.Sites[id].Ready = ready
	d.Sites[id].Due = due
	if err := d.validate(); err != nil {
		return nil, st, err
	}
	d.xy = in.xy
	d.departReady = make([]float64, n)
	copy(d.departReady, in.departReady)
	d.departReady[id] = ready + d.Sites[id].Service

	for k, nl := range in.snapshotNeighborCache() {
		rep := &NeighborLists{K: k, lists: make([][]int32, n)}
		for i := 0; i < n; i++ {
			if i == id {
				rep.lists[i] = d.buildNeighborRow(i, k)
				st.ListsRebuilt++
				continue
			}
			list := nl.lists[i]
			pos := -1
			for x, j := range list {
				if int(j) == id {
					pos = x
					break
				}
			}
			newScore, adm := d.arcScore(i, id)
			switch {
			case pos < 0 && !adm:
				rep.lists[i] = list
				st.ListsReused++
			case pos < 0 && len(list) == k && !d.beatsLast(i, list, id, newScore):
				// Still outside the top k: every excluded candidate,
				// including id, ranked at or behind the last member before
				// the change, and id only stayed there.
				rep.lists[i] = list
				st.ListsReused++
			case pos < 0:
				rep.lists[i] = d.insertSorted(i, list, int32(id), newScore, k)
				st.ListsPatched++
			case !adm && len(list) == k:
				rep.lists[i] = d.buildNeighborRow(i, k)
				st.ListsRebuilt++
			case !adm:
				// A short row holds every admissible arc; dropping id keeps
				// it exact.
				out := make([]int32, 0, len(list)-1)
				out = append(out, list[:pos]...)
				out = append(out, list[pos+1:]...)
				rep.lists[i] = out
				st.ListsPatched++
			default:
				oldScore, _ := in.arcScore(i, id)
				switch {
				case newScore == oldScore:
					rep.lists[i] = list
					st.ListsReused++
				case newScore < oldScore || len(list) < k:
					// Improved scores keep id in the top k; short rows hold
					// every admissible arc. Either way a re-sort of the
					// present members is exact.
					out := make([]int32, 0, len(list)-1)
					out = append(out, list[:pos]...)
					out = append(out, list[pos+1:]...)
					rep.lists[i] = d.insertSorted(i, out, int32(id), newScore, k)
					st.ListsPatched++
				default:
					// A worsened member of a full row may fall behind a
					// candidate the row never retained.
					rep.lists[i] = d.buildNeighborRow(i, k)
					st.ListsRebuilt++
				}
			}
		}
		d.storeNeighborLists(k, rep)
	}
	return d, st, nil
}

// UpdateDemand derives an instance with customer id's demand changed.
// Demand plays no part in arc scoring, so the coordinates, departure
// times and every cached neighbor list are shared with the parent.
func (in *Instance) UpdateDemand(id int, demand float64) (*Instance, RepairStats, error) {
	var st RepairStats
	n := len(in.Sites)
	if id < 1 || id >= n {
		return nil, st, fmt.Errorf("vrptw: cannot update site %d (instance has customers 1..%d)", id, n-1)
	}
	d := in.shell()
	d.Sites = make([]Site, n)
	copy(d.Sites, in.Sites)
	d.Sites[id].Demand = demand
	if err := d.validate(); err != nil {
		return nil, st, err
	}
	d.xy = in.xy
	d.departReady = in.departReady
	for k, nl := range in.snapshotNeighborCache() {
		st.ListsReused += n
		d.storeNeighborLists(k, nl)
	}
	return d, st, nil
}

// storeNeighborLists publishes a repaired list set into the (not yet
// shared) derived instance's cache.
func (in *Instance) storeNeighborLists(k int, nl *NeighborLists) {
	if in.nbrs == nil {
		in.nbrs = map[int]*NeighborLists{}
	}
	in.nbrs[k] = nl
}

// beatsLast reports whether the candidate arc i -> j with the given score
// would rank ahead of the last member of i's full row under the
// deterministic (score, index) order.
func (in *Instance) beatsLast(i int, list []int32, j int, score float64) bool {
	last := int(list[len(list)-1])
	lastScore, _ := in.arcScore(i, last)
	if score != lastScore {
		return score < lastScore
	}
	return j < last
}

// insertSorted returns list with arc i -> j (ranked by score) inserted at
// its (score, index) position, truncated to k members. The input list is
// not modified.
func (in *Instance) insertSorted(i int, list []int32, j int32, score float64, k int) []int32 {
	out := make([]int32, 0, len(list)+1)
	placed := false
	for _, m := range list {
		if !placed {
			ms, _ := in.arcScore(i, int(m))
			if score < ms || (score == ms && j < m) {
				out = append(out, j)
				placed = true
			}
		}
		out = append(out, m)
	}
	if !placed {
		out = append(out, j)
	}
	if len(out) > k {
		out = out[:k]
	}
	return out
}
