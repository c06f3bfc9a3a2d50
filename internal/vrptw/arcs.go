package vrptw

import "math"

// ArcBits is the instance's arc-admissibility table, one bit per ordered
// pair of sites: bit i·(N+1)+j is set exactly when j is the depot or
// departing i as early as possible still reaches j by its due date — the
// operators' local time-window test (§II.B). The proposal paths test arcs
// here instead of computing the distance and reading the windows, so the
// test has one definition. Immutable after construction and safe for
// concurrent readers.
type ArcBits struct {
	n    int
	bits []uint64
}

// OK reports whether the arc i -> j passes the local time-window test.
func (a *ArcBits) OK(i, j int) bool {
	k := uint(i*a.n + j)
	return a.bits[k/64]&(1<<(k%64)) != 0
}

// ArcBits returns the instance's arc bitset, building it on first use
// (one pass over the (N+1)² pairs, computing each one's distance; 20 KB
// at N = 400). The first NeighborLists build also builds it and ranks
// only the arcs it admits. New never builds it, and so neither do
// Generate and the mutation primitives, which carry a derived instance's
// lists over from its parent without one: an instance that is never
// searched never pays for it, and a derived (mutated) instance builds its
// own on first use. Safe for concurrent use.
func (in *Instance) ArcBits() *ArcBits {
	if a := in.arcs.Load(); a != nil {
		return a
	}
	in.nbrMu.Lock()
	defer in.nbrMu.Unlock()
	return in.arcBitsLocked()
}

// arcBitsLocked returns the arc bitset, building and publishing it if it
// is absent. The caller holds nbrMu, so the table is built once.
func (in *Instance) arcBitsLocked() *ArcBits {
	if a := in.arcs.Load(); a != nil {
		return a
	}
	n := len(in.Sites)
	a := &ArcBits{n: n, bits: make([]uint64, (n*n+63)/64)}
	// The depot's infinite due date admits every arc into it: every
	// departure time plus distance is finite or +Inf, never NaN.
	due := make([]float64, n)
	due[0] = math.Inf(1)
	for j := 1; j < n; j++ {
		due[j] = in.Sites[j].Due
	}
	// The bits are accumulated in index order, a word at a time, and the
	// test sets a bit without a branch: which arcs pass is
	// data-dependent, so a branch on it mispredicts.
	var word uint64
	k := uint(0)
	for i := 0; i < n; i++ {
		ready, p := in.departReady[i], in.xy[i]
		for j, q := range in.xy {
			var bit uint64
			if ready+p.dist(q) <= due[j] {
				bit = 1
			}
			word |= bit << (k % 64)
			k++
			if k%64 == 0 {
				a.bits[k/64-1] = word
				word = 0
			}
		}
	}
	if k%64 != 0 {
		a.bits[k/64] = word
	}
	in.arcs.Store(a)
	return a
}
