package vrptw

import "math/bits"

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
// building them on first use and caching per k. The first build also
// builds the arc bitset (ArcBits) and ranks only the arcs it admits.
// Safe for concurrent use: the goroutine backend's searchers share one
// Instance.
func (in *Instance) NeighborLists(k int) *NeighborLists {
	if k < 1 {
		panic("vrptw: NeighborLists needs k >= 1")
	}
	in.nbrMu.Lock()
	defer in.nbrMu.Unlock()
	if nl, ok := in.nbrs[k]; ok {
		return nl
	}
	nl := in.buildNeighborLists(k, in.arcBitsLocked())
	if in.nbrs == nil {
		in.nbrs = map[int]*NeighborLists{}
	}
	in.nbrs[k] = nl
	return nl
}

// buildNeighborLists ranks every row's admissible arcs, visiting only the
// bits a sets in that row: admissibility is decided once per arc, when
// the bitset is built, and an inadmissible arc costs a bit skip here.
func (in *Instance) buildNeighborLists(k int, a *ArcBits) *NeighborLists {
	n := len(in.Sites)
	nl := &NeighborLists{K: k, lists: make([][]int32, n)}
	row := topK{k: k, best: make([]scoredArc, 0, min(k, n))}
	for i := 0; i < n; i++ {
		ready, p := in.departReady[i], in.xy[i]
		// Bits lo+1 .. end-1 are the arcs i -> 1 .. n-1; the depot's bit
		// is always set and never listed.
		lo, end := i*n, (i+1)*n
		for w := (lo + 1) / 64; w*64 < end; w++ {
			word := a.bits[w]
			if w == (lo+1)/64 {
				word &= ^uint64(0) << ((lo + 1) % 64)
			}
			if (w+1)*64 > end {
				word &= ^uint64(0) >> (64 - end%64)
			}
			for word != 0 {
				j := w*64 + bits.TrailingZeros64(word) - lo
				word &= word - 1
				if j != i {
					d := p.dist(in.xy[j])
					row.offer(int32(j), rankScore(d, ready+d, in.Sites[j].Ready))
				}
			}
		}
		nl.lists[i] = row.list()
	}
	return nl
}

// arcScore returns the granular ranking score of arc i -> j (travel
// distance plus unavoidable waiting at j) and whether the arc is admissible
// at all — departing i as early as possible still reaches j by its due
// date. A derived instance (mutate.go) ranks the arcs it carries over or
// re-derives by it; the full build takes admissibility from the arc
// bitset and the score from rankScore.
func (in *Instance) arcScore(i, j int) (float64, bool) {
	arrive := in.DepartReady(i) + in.Dist(i, j)
	if arrive > in.Sites[j].Due {
		return 0, false
	}
	return rankScore(in.Dist(i, j), arrive, in.Sites[j].Ready), true
}

// rankScore is the granular ranking score of an arc of travel distance d
// that arrives at arrive at a site ready at ready: the distance plus the
// unavoidable wait.
func rankScore(d, arrive, ready float64) float64 {
	wait := ready - arrive
	if wait < 0 {
		wait = 0
	}
	return d + wait
}

// scoredArc is one admissible successor j of a row and its arcScore.
type scoredArc struct {
	j     int32
	score float64
}

// topK keeps the up-to-k best arcs offered for one row, sorted by (score,
// index). Arcs are offered in ascending index, so an arc tying a kept one
// ranks behind it, and one no better than the k-th is dropped after one
// comparison: a row costs one pass and no N-wide sort.
type topK struct {
	k    int
	best []scoredArc
}

// offer keeps arc (j, score) if it ranks among the k best so far.
func (t *topK) offer(j int32, score float64) {
	if len(t.best) < t.k || score < t.best[t.k-1].score {
		t.insert(j, score)
	}
}

// insert is kept out of line so that offer, whose test rejects most
// arcs, inlines into the row loops.
//
//go:noinline
func (t *topK) insert(j int32, score float64) {
	pos := len(t.best)
	for pos > 0 && t.best[pos-1].score > score {
		pos--
	}
	if len(t.best) < t.k {
		t.best = append(t.best, scoredArc{})
	}
	copy(t.best[pos+1:], t.best[pos:len(t.best)-1])
	t.best[pos] = scoredArc{j: j, score: score}
}

// list returns the kept successors, best-first, and empties t for the
// next row.
func (t *topK) list() []int32 {
	list := make([]int32, len(t.best))
	for x, a := range t.best {
		list[x] = a.j
	}
	t.best = t.best[:0]
	return list
}

// buildNeighborRow derives site i's up-to-k best-first successor list from
// scratch, testing every arc with arcScore: a derived instance (mutate.go)
// re-derives the rows it cannot carry over this way without building its
// bitset.
func (in *Instance) buildNeighborRow(i, k int) []int32 {
	row := topK{k: k}
	for j := 1; j < len(in.Sites); j++ {
		if j == i {
			continue
		}
		if score, ok := in.arcScore(i, j); ok {
			row.offer(int32(j), score)
		}
	}
	return row.list()
}
