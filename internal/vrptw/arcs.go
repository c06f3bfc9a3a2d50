package vrptw

// ArcBits is the instance's arc-admissibility table, one bit per ordered
// pair of sites: bit i·(N+1)+j is set exactly when j is the depot or
// departing i as early as possible still reaches j by its due date — the
// operators' local time-window test (§II.B). The proposal paths test arcs
// here instead of reading the distance matrix and the windows, so the
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
// (one pass over the (N+1)² pairs; 20 KB at N = 400). Nothing else builds
// it — not New, Generate or NeighborLists — so an instance that is never
// searched never pays for it, and a derived (mutated) instance builds its
// own. Safe for concurrent use.
func (in *Instance) ArcBits() *ArcBits {
	if a := in.arcs.Load(); a != nil {
		return a
	}
	return in.buildArcBits()
}

func (in *Instance) buildArcBits() *ArcBits {
	in.nbrMu.Lock()
	defer in.nbrMu.Unlock()
	if a := in.arcs.Load(); a != nil {
		return a
	}
	n := len(in.Sites)
	a := &ArcBits{n: n, bits: make([]uint64, (n*n+63)/64)}
	for i := 0; i < n; i++ {
		ready, row := in.departReady[i], in.dist[i*n:(i+1)*n]
		for j := range row {
			if j == 0 || ready+row[j] <= in.Sites[j].Due {
				k := uint(i*n + j)
				a.bits[k/64] |= 1 << (k % 64)
			}
		}
	}
	in.arcs.Store(a)
	return a
}
