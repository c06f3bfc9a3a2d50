// Package moea implements NSGA-II (Deb et al., 2000) on the CVRPTW
// solution representation, as the multiobjective-EA baseline the paper's
// future-work section calls for ("a comparison between the TSMO versions
// here and the well established multiobjective evolutionary algorithms").
//
// Variation is mutation-based: children are produced by applying one to
// three of the same five neighborhood operators TSMO uses. This keeps the
// variation operators identical across the compared algorithms — standard
// permutation crossovers on the VRPTW tend to require repair procedures
// that would confound the comparison.
package moea

import (
	"fmt"
	"sort"

	"repro/internal/construct"
	"repro/internal/operators"
	"repro/internal/pareto"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/vrptw"
)

// Config parameterizes an NSGA-II run.
type Config struct {
	// PopulationSize (default 100).
	PopulationSize int
	// MaxEvaluations is the objective-evaluation budget, matching the
	// TSMO budget for fair comparisons.
	MaxEvaluations int
	// MaxMutations bounds the number of operator applications per child
	// (uniform in [1, MaxMutations]; default 3).
	MaxMutations int
	// Seed for reproducibility.
	Seed uint64
}

// Result of an NSGA-II run.
type Result struct {
	// Front is the first non-dominated front of the final population.
	Front []*solution.Solution
	// Evaluations actually spent.
	Evaluations int
	// Generations completed.
	Generations int
}

// Run executes NSGA-II on the instance.
func Run(in *vrptw.Instance, cfg Config) (*Result, error) {
	if cfg.PopulationSize == 0 {
		cfg.PopulationSize = 100
	}
	if cfg.MaxMutations == 0 {
		cfg.MaxMutations = 3
	}
	if cfg.PopulationSize < 4 {
		return nil, fmt.Errorf("moea: population size must be >= 4, got %d", cfg.PopulationSize)
	}
	if cfg.MaxEvaluations < cfg.PopulationSize {
		return nil, fmt.Errorf("moea: budget %d below population size %d", cfg.MaxEvaluations, cfg.PopulationSize)
	}
	r := rng.New(cfg.Seed)
	ops := operators.All()

	pop := make([]*solution.Solution, cfg.PopulationSize)
	for i := range pop {
		pop[i] = construct.I1(in, construct.RandomParams(r))
	}
	evals := cfg.PopulationSize
	gens := 0

	for evals < cfg.MaxEvaluations {
		ranks, crowd := rankAndCrowd(pop)
		children := make([]*solution.Solution, 0, cfg.PopulationSize)
		for len(children) < cfg.PopulationSize && evals < cfg.MaxEvaluations {
			p := tournament(pop, ranks, crowd, r)
			c := mutate(in, p, ops, r, 1+r.Intn(cfg.MaxMutations))
			children = append(children, c)
			evals++
		}
		pop = environmental(append(pop, children...), cfg.PopulationSize)
		gens++
	}

	ranks, _ := rankAndCrowd(pop)
	var front []*solution.Solution
	seen := map[[3]float64]bool{}
	for i, s := range pop {
		if ranks[i] != 0 {
			continue
		}
		key := s.Obj.Values()
		if seen[key] {
			continue
		}
		seen[key] = true
		front = append(front, s)
	}
	return &Result{Front: front, Evaluations: evals, Generations: gens}, nil
}

// mutate applies k random feasible operator moves to a copy of s.
func mutate(in *vrptw.Instance, s *solution.Solution, ops []operators.MoveKind, r *rng.Rand, k int) *solution.Solution {
	cur := s
	for i := 0; i < k; i++ {
		op := ops[r.Intn(len(ops))]
		if d, ok := op.Propose(in, cur, r); ok {
			cur = d.Apply(in, cur)
		}
	}
	if cur == s {
		cur = s.Clone() // keep child distinct even when no move applied
	}
	return cur
}

// tournament is NSGA-II's binary tournament on (rank, crowding distance).
func tournament(pop []*solution.Solution, ranks []int, crowd []float64, r *rng.Rand) *solution.Solution {
	i, j := r.Intn(len(pop)), r.Intn(len(pop))
	switch {
	case ranks[i] < ranks[j]:
		return pop[i]
	case ranks[j] < ranks[i]:
		return pop[j]
	case crowd[i] > crowd[j]:
		return pop[i]
	default:
		return pop[j]
	}
}

// environmental performs the (μ+λ) NSGA-II survivor selection: fill by
// non-domination rank, break the last front by crowding distance.
func environmental(all []*solution.Solution, target int) []*solution.Solution {
	fronts := fastNondominatedSort(all)
	next := make([]*solution.Solution, 0, target)
	for _, f := range fronts {
		if len(next)+len(f) <= target {
			for _, i := range f {
				next = append(next, all[i])
			}
			continue
		}
		objs := make([]solution.Objectives, len(f))
		for k, i := range f {
			objs[k] = all[i].Obj
		}
		d := pareto.CrowdingDistances(objs)
		order := make([]int, len(f))
		for k := range order {
			order[k] = k
		}
		sort.Slice(order, func(a, b int) bool { return d[order[a]] > d[order[b]] })
		for _, k := range order {
			if len(next) == target {
				break
			}
			next = append(next, all[f[k]])
		}
		break
	}
	return next
}

// fastNondominatedSort returns the population indices grouped into
// non-domination fronts, best first (Deb's O(MN²) procedure).
func fastNondominatedSort(pop []*solution.Solution) [][]int {
	n := len(pop)
	dominatedBy := make([][]int, n) // i dominates these
	counts := make([]int, n)        // number of solutions dominating i
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if pop[i].Obj.Dominates(pop[j].Obj) {
				dominatedBy[i] = append(dominatedBy[i], j)
			} else if pop[j].Obj.Dominates(pop[i].Obj) {
				counts[i]++
			}
		}
	}
	var fronts [][]int
	var current []int
	for i := 0; i < n; i++ {
		if counts[i] == 0 {
			current = append(current, i)
		}
	}
	for len(current) > 0 {
		fronts = append(fronts, current)
		var next []int
		for _, i := range current {
			for _, j := range dominatedBy[i] {
				counts[j]--
				if counts[j] == 0 {
					next = append(next, j)
				}
			}
		}
		current = next
	}
	return fronts
}

// rankAndCrowd returns each individual's front rank (0 = best) and its
// crowding distance within its front.
func rankAndCrowd(pop []*solution.Solution) ([]int, []float64) {
	fronts := fastNondominatedSort(pop)
	ranks := make([]int, len(pop))
	crowd := make([]float64, len(pop))
	for fi, f := range fronts {
		objs := make([]solution.Objectives, len(f))
		for k, i := range f {
			objs[k] = pop[i].Obj
		}
		d := pareto.CrowdingDistances(objs)
		for k, i := range f {
			ranks[i] = fi
			crowd[i] = d[k]
		}
	}
	return ranks, crowd
}
