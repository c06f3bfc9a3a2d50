package vrptw

// NeighborLists is the sparse granular-neighborhood graph of an instance:
// for every site i (the depot included) the up-to-K most promising
// successors j, sorted best-first. An arc i -> j is admitted only when it
// passes the operators' local time-window test — departing i as early as
// possible still reaches j by its due date — and candidates are ranked by
// travel distance plus the unavoidable waiting time at j, so the lists mix
// spatial closeness with time-window compatibility. Granular tabu search
// draws its moves from these arcs only, shrinking the effective
// neighborhood from O(N²) to O(K·N) without losing the arcs good solutions
// are made of (Toth & Vigo's granular neighborhoods).
//
// Lists are immutable after construction and safe for concurrent readers.
type NeighborLists struct {
	K     int
	lists [][]int32
}

// Of returns the neighbor list of site i, best-first. The slice is shared
// and must not be modified.
func (nl *NeighborLists) Of(i int) []int32 { return nl.lists[i] }

// NeighborLists returns the instance's granular arc lists for the given k,
// building them on first use and caching per k. Safe for concurrent use:
// the goroutine backend's searchers share one Instance.
func (in *Instance) NeighborLists(k int) *NeighborLists {
	if k < 1 {
		panic("vrptw: NeighborLists needs k >= 1")
	}
	in.nbrMu.Lock()
	defer in.nbrMu.Unlock()
	if nl, ok := in.nbrs[k]; ok {
		return nl
	}
	nl := in.buildNeighborLists(k)
	if in.nbrs == nil {
		in.nbrs = map[int]*NeighborLists{}
	}
	in.nbrs[k] = nl
	return nl
}

func (in *Instance) buildNeighborLists(k int) *NeighborLists {
	n := len(in.Sites)
	nl := &NeighborLists{K: k, lists: make([][]int32, n)}
	best := make([]scoredArc, 0, min(k, n))
	for i := 0; i < n; i++ {
		nl.lists[i] = in.buildNeighborRow(i, k, best)
	}
	return nl
}

// arcScore returns the granular ranking score of arc i -> j (travel
// distance plus unavoidable waiting at j) and whether the arc is admissible
// at all — departing i as early as possible still reaches j by its due
// date. This is the single definition both the full build and the
// incremental repairs (mutate.go) rank by.
func (in *Instance) arcScore(i, j int) (float64, bool) {
	arrive := in.DepartReady(i) + in.Dist(i, j)
	if arrive > in.Sites[j].Due {
		return 0, false
	}
	wait := in.Sites[j].Ready - arrive
	if wait < 0 {
		wait = 0
	}
	return in.Dist(i, j) + wait, true
}

// scoredArc is one admissible successor j of a row and its arcScore.
type scoredArc struct {
	j     int32
	score float64
}

// buildNeighborRow derives site i's up-to-k best-first successor list from
// scratch. best is scratch space for the k best arcs seen so far, reused
// across rows (nil allocates it); bounded insertion keeps it sorted by
// (score, index), so a row costs one pass over the sites and no N-wide
// sort.
func (in *Instance) buildNeighborRow(i, k int, best []scoredArc) []int32 {
	best = best[:0]
	for j := 1; j < len(in.Sites); j++ {
		if j == i {
			continue
		}
		score, ok := in.arcScore(i, j)
		if !ok {
			continue // the arc can never be served on time
		}
		// j ascends, so an arc tying a kept one ranks behind it.
		if len(best) == k && score >= best[k-1].score {
			continue
		}
		pos := len(best)
		for pos > 0 && best[pos-1].score > score {
			pos--
		}
		if len(best) < k {
			best = append(best, scoredArc{})
		}
		copy(best[pos+1:], best[pos:len(best)-1])
		best[pos] = scoredArc{j: int32(j), score: score}
	}
	list := make([]int32, len(best))
	for x, a := range best {
		list[x] = a.j
	}
	return list
}
