// Package pareto provides the non-dominated stores used by the TSMO
// algorithm: a bounded Archive (the paper's M_archive, capacity 20 in the
// experiments) and, via a larger capacity, the medium-term memory M_nondom.
// When a full archive accepts a new non-dominated solution, the most
// crowded member — measured by the NSGA-II crowding distance — is evicted,
// spreading the stored front evenly (paper §III.B).
package pareto

import (
	"math"

	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/telemetry"
)

// Archive is a bounded store of mutually non-dominated solutions.
// The zero value is unusable; construct with NewArchive.
type Archive struct {
	capacity int
	items    []*solution.Solution
	tel      *telemetry.Telemetry
	base     telemetry.CounterID // the store block: ArchiveAccepts or NondomAccepts
	// Eviction scratch, reused so the accept path of a full archive —
	// taken nearly every searcher iteration by the medium-term memory —
	// stays allocation-free.
	objScratch []solution.Objectives
	dScratch   []float64
	idxScratch []int
}

// SetStats attaches acceptance/rejection/eviction counting into tel's
// store block starting at base (telemetry.ArchiveAccepts or
// telemetry.NondomAccepts). A nil tel (the default) disables it at the
// cost of one branch per Add outcome.
func (a *Archive) SetStats(tel *telemetry.Telemetry, base telemetry.CounterID) {
	a.tel, a.base = tel, base
}

// NewArchive returns an empty archive holding at most capacity solutions.
// It panics if capacity < 1.
func NewArchive(capacity int) *Archive {
	if capacity < 1 {
		panic("pareto: archive capacity must be >= 1")
	}
	return &Archive{capacity: capacity}
}

// Len returns the number of stored solutions.
func (a *Archive) Len() int { return len(a.items) }

// Capacity returns the maximum number of stored solutions.
func (a *Archive) Capacity() int { return a.capacity }

// Items returns the stored solutions. The returned slice is owned by the
// archive; callers must not modify it.
func (a *Archive) Items() []*solution.Solution { return a.items }

// Snapshot returns a copy of the stored solution list, safe to keep across
// further archive updates.
func (a *Archive) Snapshot() []*solution.Solution {
	return append([]*solution.Solution(nil), a.items...)
}

// Restore replaces the archive contents with items, preserving their
// order. Order is part of the archive's observable state: eviction picks
// the first minimum-crowding member, and Random/TakeRandom index the
// slice directly — a checkpoint must round-trip it exactly. The caller
// guarantees items are mutually non-dominated and within capacity.
func (a *Archive) Restore(items []*solution.Solution) {
	a.items = append(a.items[:0], items...)
}

// Add offers s to the archive. It is rejected if any member weakly
// dominates it (this includes exact objective duplicates). Otherwise the
// members it dominates are removed, s is inserted, and if the archive then
// exceeds its capacity the member with the smallest crowding distance is
// evicted. Add reports whether s is in the archive afterwards — the
// paper's notion of an "improving" solution.
func (a *Archive) Add(s *solution.Solution) bool {
	for _, m := range a.items {
		if m.Obj.WeaklyDominates(s.Obj) {
			a.tel.Inc(a.base + telemetry.StoreReject)
			return false
		}
	}
	w := 0
	for _, m := range a.items {
		if !s.Obj.Dominates(m.Obj) {
			a.items[w] = m
			w++
		}
	}
	a.items = a.items[:w]
	a.items = append(a.items, s)
	if len(a.items) <= a.capacity {
		a.tel.Inc(a.base + telemetry.StoreAccept)
		return true
	}
	// Evict the most crowded member.
	n := len(a.items)
	if cap(a.objScratch) < n {
		a.objScratch = make([]solution.Objectives, n)
		a.dScratch = make([]float64, n)
		a.idxScratch = make([]int, n)
	}
	objs := a.objScratch[:n]
	for i, m := range a.items {
		objs[i] = m.Obj
	}
	d := a.dScratch[:n]
	crowdingInto(objs, d, a.idxScratch[:n])
	victim := 0
	for i := 1; i < len(d); i++ {
		if d[i] < d[victim] {
			victim = i
		}
	}
	evicted := a.items[victim]
	a.items[victim] = a.items[len(a.items)-1]
	a.items = a.items[:len(a.items)-1]
	a.tel.Inc(a.base + telemetry.StoreEvict)
	if evicted != s {
		a.tel.Inc(a.base + telemetry.StoreAccept)
		return true
	}
	a.tel.Inc(a.base + telemetry.StoreReject)
	return false
}

// WouldAccept reports whether an Add of a solution with objectives o would
// currently be accepted, without modifying the archive. It lets callers on
// the delta-evaluation path decide admission from objectives alone, before
// materializing the solution.
func (a *Archive) WouldAccept(o solution.Objectives) bool {
	for _, m := range a.items {
		if m.Obj.WeaklyDominates(o) {
			return false
		}
	}
	return true
}

// Random returns a uniformly chosen member, or nil if the archive is empty.
func (a *Archive) Random(r *rng.Rand) *solution.Solution {
	if len(a.items) == 0 {
		return nil
	}
	return a.items[r.Intn(len(a.items))]
}

// TakeRandom removes and returns a uniformly chosen member, or nil if the
// archive is empty. The paper's restart step consumes solutions from the
// medium-term memory this way.
func (a *Archive) TakeRandom(r *rng.Rand) *solution.Solution {
	if len(a.items) == 0 {
		return nil
	}
	i := r.Intn(len(a.items))
	s := a.items[i]
	a.items[i] = a.items[len(a.items)-1]
	a.items = a.items[:len(a.items)-1]
	return s
}

// CrowdingDistances computes the NSGA-II crowding distance of every
// objective vector: boundary points per objective get +Inf, interior
// points accumulate the normalized gap between their neighbors. Larger
// means less crowded.
func CrowdingDistances(objs []solution.Objectives) []float64 {
	n := len(objs)
	d := make([]float64, n)
	crowdingInto(objs, d, make([]int, n))
	return d
}

// crowdingInto is CrowdingDistances with caller-owned storage: d receives
// the distances and idx is sort scratch (both len(objs)). The per-
// objective ordering uses a stable insertion sort — archive sizes are
// tens of elements, and avoiding sort.Slice keeps the hot eviction path
// free of the reflect-based swapper allocation.
func crowdingInto(objs []solution.Objectives, d []float64, idx []int) {
	n := len(objs)
	if n <= 2 {
		for i := range d {
			d[i] = math.Inf(1)
		}
		return
	}
	for i := range d {
		d[i] = 0
	}
	for m := 0; m < 3; m++ {
		for i := range idx {
			idx[i] = i
		}
		val := func(i int) float64 {
			switch m {
			case 0:
				return objs[i].Distance
			case 1:
				return objs[i].Vehicles
			default:
				return objs[i].Tardiness
			}
		}
		for a := 1; a < n; a++ {
			x := idx[a]
			vx := val(x)
			b := a - 1
			for b >= 0 && val(idx[b]) > vx {
				idx[b+1] = idx[b]
				b--
			}
			idx[b+1] = x
		}
		lo, hi := val(idx[0]), val(idx[n-1])
		d[idx[0]] = math.Inf(1)
		d[idx[n-1]] = math.Inf(1)
		if hi == lo {
			continue
		}
		for k := 1; k < n-1; k++ {
			d[idx[k]] += (val(idx[k+1]) - val(idx[k-1])) / (hi - lo)
		}
	}
}

// NondominatedIndices returns the indices of the objective vectors not
// dominated by any other vector in objs (duplicates are all kept).
func NondominatedIndices(objs []solution.Objectives) []int {
	var out []int
	for i, oi := range objs {
		dominated := false
		for j, oj := range objs {
			if i != j && oj.Dominates(oi) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, i)
		}
	}
	return out
}

// Fold folds objs[i] into front, a list of indices into objs whose vectors
// are mutually non-dominated, and returns the updated list: objs[i] is
// dropped when a member dominates it; otherwise the members it dominates
// are compacted out and i is appended. Members are mutually
// non-dominated, so no removal can precede finding a dominator (dominance
// is transitive) and the early exit leaves front as it was. Duplicates are
// all kept. Dominance is a strict partial order, so folding any
// permutation of a set of indices leaves the same members, those of
// NondominatedIndices over the set, and folding the members of one fold's
// result into another's gives those of the union. The order of front is
// the order of folding, less the removals; it never allocates while front
// has room for one more index.
func Fold(front []int, objs []solution.Objectives, i int) []int {
	o := objs[i]
	w := 0
	for _, j := range front {
		if objs[j].Dominates(o) {
			return front
		}
		if !o.Dominates(objs[j]) {
			front[w] = j
			w++
		}
	}
	return append(front[:w], i)
}

// Front returns the indices of the vectors of objs no other vector
// dominates, ascending and duplicates kept, in dst's storage: what
// NondominatedIndices returns, folded in one pass against the running
// front instead of the all-pairs scan.
func Front(dst []int, objs []solution.Objectives) []int {
	dst = dst[:0]
	for i := range objs {
		dst = Fold(dst, objs, i)
	}
	return dst
}
