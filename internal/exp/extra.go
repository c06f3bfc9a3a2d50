package exp

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/metrics"
	"repro/internal/operators"
	"repro/internal/solution"
	"repro/internal/stats"
	"repro/internal/vrptw"
)

// EqualTimeRow is one line of the equal-time comparison: with the runtime
// fixed instead of the evaluation budget, how many evaluations does each
// variant fit in, and what quality does it reach? This is the comparison
// the paper's §IV proposes ("Given an equal amount of time, it would be
// possible for the asynchronous Tabu Search to do more evaluations").
type EqualTimeRow struct {
	Alg      core.Algorithm
	Procs    int
	Evals    float64 // mean evaluations completed
	EvalsStd float64
	Dist     float64 // mean best feasible distance
	DistStd  float64
}

// EqualTimeResult is the full equal-time comparison.
type EqualTimeResult struct {
	N       int
	Seconds float64
	Runs    int
	Rows    []EqualTimeRow
}

// RunEqualTime runs every variant for a fixed virtual-time budget on a
// generated R1 instance of size n.
func RunEqualTime(n int, seconds float64, procs []int, runs int, seed uint64) (*EqualTimeResult, error) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	vars := []variant{{core.Sequential, 1}}
	for _, p := range procs {
		vars = append(vars,
			variant{core.Synchronous, p},
			variant{core.Asynchronous, p},
			variant{core.Collaborative, p},
		)
	}
	res := &EqualTimeResult{N: n, Seconds: seconds, Runs: runs}
	for _, v := range vars {
		evals := make([]float64, runs)
		dists := make([]float64, runs)
		for r := 0; r < runs; r++ {
			cfg := core.DefaultConfig()
			cfg.MaxEvaluations = 1 << 30
			cfg.MaxSeconds = seconds
			cfg.Processors = v.Procs
			cfg.Seed = seed + uint64(r)
			m := deme.Origin3800()
			m.Seed = seed*31 + uint64(r)
			out, err := core.Run(v.Alg, in, cfg, deme.NewSim(m))
			if err != nil {
				return nil, err
			}
			evals[r] = float64(out.Evaluations)
			dists[r] = out.BestDistance()
		}
		row := EqualTimeRow{Alg: v.Alg, Procs: v.Procs}
		row.Evals, row.EvalsStd = stats.MeanStd(evals)
		row.Dist, row.DistStd = stats.MeanStd(dists)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the equal-time comparison as text.
func (r *EqualTimeResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "EQUAL-TIME COMPARISON — %d-city R1, %.0f virtual seconds, %d runs\n",
		r.N, r.Seconds, r.Runs)
	fmt.Fprintf(w, "%-22s %20s %20s\n", "Algorithm", "evaluations", "best distance")
	for _, row := range r.Rows {
		name := fmt.Sprintf("%s P=%d", shortName(row.Alg), row.Procs)
		if row.Alg == core.Sequential {
			name = "sequential"
		}
		fmt.Fprintf(w, "%-22s %12.0f±%-7.0f %12.2f±%-7.2f\n",
			name, row.Evals, row.EvalsStd, row.Dist, row.DistStd)
	}
	return nil
}

// OperatorRow is one line of the operator ablation: quality reached by the
// sequential TSMO restricted to a single operator, versus the paper's
// five-operator mix and the extended set.
type OperatorRow struct {
	Name    string
	Dist    float64
	DistStd float64
	Veh     float64
	Fails   int // runs without any feasible solution
}

// OperatorAblation compares neighborhoods built from different operator
// sets on a generated R1 instance.
type OperatorAblation struct {
	N, Evals, Runs int
	Rows           []OperatorRow
}

// RunOperatorAblation measures each operator set's end-of-run quality.
func RunOperatorAblation(n, evals, runs int, seed uint64) (*OperatorAblation, error) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: n, Seed: seed})
	if err != nil {
		return nil, err
	}
	sets := []struct {
		name string
		ops  []operators.MoveKind
	}{
		{"paper-five", nil},
		{"extended", operators.Extended()},
	}
	for _, op := range operators.All() {
		sets = append(sets, struct {
			name string
			ops  []operators.MoveKind
		}{op.String() + "-only", []operators.MoveKind{op}})
	}

	res := &OperatorAblation{N: n, Evals: evals, Runs: runs}
	for _, set := range sets {
		dists := make([]float64, 0, runs)
		var vehSum float64
		fails := 0
		for r := 0; r < runs; r++ {
			cfg := core.DefaultConfig()
			cfg.MaxEvaluations = evals
			cfg.NeighborhoodSize = 100
			cfg.Operators = set.ops
			cfg.Seed = seed + uint64(r)
			out, err := core.Run(core.Sequential, in, cfg, deme.NewSim(deme.Ideal()))
			if err != nil {
				return nil, err
			}
			d := out.BestDistance()
			v := out.MinVehicles()
			if len(out.FeasibleFront()) == 0 {
				fails++
				continue
			}
			dists = append(dists, d)
			vehSum += v
		}
		row := OperatorRow{Name: set.name, Fails: fails}
		if len(dists) > 0 {
			row.Dist, row.DistStd = stats.MeanStd(dists)
			row.Veh = vehSum / float64(len(dists))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// GranularParityRow is one line of the granular quality-parity check: on
// one instance, the hypervolume (and best distance) reached by the full
// neighborhood versus the granular one at an equal evaluation budget.
type GranularParityRow struct {
	N         int
	HVFull    float64
	HVFullStd float64
	HVGran    float64
	HVGranStd float64
	Ratio     float64 // mean granular HV / mean full HV
	// Merged-front hypervolume: HV of the union of all runs' feasible
	// fronts per configuration. Per-run HV is dominated by which vehicle
	// count a run happens to reach, so its mean is noisy; the merged front
	// washes that out and is the statistic the parity gate reads.
	HVMergedFull float64
	HVMergedGran float64
	MergedRatio  float64
	DistFull     float64
	DistGran     float64
}

// GranularParity compares the full and granular (k-nearest) neighborhoods
// at equal budget. With the sequential searcher on the deterministic
// simulator, an equal evaluation budget is an equal virtual-time budget:
// both configurations charge the same model cost per evaluation.
type GranularParity struct {
	Evals, Runs, K int
	Rows           []GranularParityRow
}

// RunGranularParity runs the sequential TSMO with and without granular
// neighborhoods on generated R1 instances and reports the hypervolume of
// the final feasible fronts under a fixed a-priori reference point scaled
// with the instance size. Deriving the reference from the observed fronts
// would couple the indicator to the configurations under comparison (and
// to the run count); a fixed reference keeps each run's hypervolume an
// independent, reproducible measurement.
func RunGranularParity(sizes []int, evals, runs, k int, seed uint64) (*GranularParity, error) {
	res := &GranularParity{Evals: evals, Runs: runs, K: k}
	for _, n := range sizes {
		in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: n, Seed: seed})
		if err != nil {
			return nil, err
		}
		fronts := map[int][][]solution.Objectives{}
		dist := map[int][]float64{}
		for _, gk := range []int{0, k} {
			for r := 0; r < runs; r++ {
				cfg := core.DefaultConfig()
				cfg.MaxEvaluations = evals
				cfg.GranularK = gk
				cfg.Seed = seed + uint64(r)
				out, err := core.Run(core.Sequential, in, cfg, deme.NewSim(deme.Ideal()))
				if err != nil {
					return nil, err
				}
				fronts[gk] = append(fronts[gk], metrics.FeasibleObjs(out.FeasibleFront()))
				dist[gk] = append(dist[gk], out.BestDistance())
			}
		}
		// A-priori reference point, scaled with the instance size: about
		// twice the typical best distance on generated R1 instances, a
		// vehicle count no reasonable front exceeds, and a token tardiness
		// bound (feasible fronts sit at tardiness zero).
		ref := solution.Objectives{
			Distance:  40 * float64(n),
			Vehicles:  float64(n)/4 + 10,
			Tardiness: 100,
		}

		hv := func(gk int) (mean, std float64) {
			vals := make([]float64, runs)
			for r, f := range fronts[gk] {
				vals[r] = metrics.Hypervolume(f, ref)
			}
			return stats.MeanStd(vals)
		}
		merged := func(gk int) float64 {
			var all []solution.Objectives
			for _, f := range fronts[gk] {
				all = append(all, f...)
			}
			return metrics.Hypervolume(all, ref)
		}
		row := GranularParityRow{N: n}
		row.HVFull, row.HVFullStd = hv(0)
		row.HVGran, row.HVGranStd = hv(k)
		if row.HVFull > 0 {
			row.Ratio = row.HVGran / row.HVFull
		}
		row.HVMergedFull = merged(0)
		row.HVMergedGran = merged(k)
		if row.HVMergedFull > 0 {
			row.MergedRatio = row.HVMergedGran / row.HVMergedFull
		}
		row.DistFull, _ = stats.MeanStd(dist[0])
		row.DistGran, _ = stats.MeanStd(dist[k])
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render writes the parity comparison as text.
func (g *GranularParity) Render(w io.Writer) error {
	fmt.Fprintf(w, "GRANULAR QUALITY PARITY — R1, %d evaluations, %d runs, k=%d (sequential TSMO)\n",
		g.Evals, g.Runs, g.K)
	fmt.Fprintf(w, "%-6s %22s %22s %8s %10s %10s %8s %11s %11s\n",
		"N", "HV full", "HV granular", "ratio", "HVm full", "HVm gran", "m-ratio", "dist full", "dist gran")
	for _, row := range g.Rows {
		fmt.Fprintf(w, "%-6d %14.3g±%-7.2g %14.3g±%-7.2g %8.4f %10.3g %10.3g %8.4f %11.2f %11.2f\n",
			row.N, row.HVFull, row.HVFullStd, row.HVGran, row.HVGranStd, row.Ratio,
			row.HVMergedFull, row.HVMergedGran, row.MergedRatio,
			row.DistFull, row.DistGran)
	}
	return nil
}

// Render writes the ablation as text.
func (a *OperatorAblation) Render(w io.Writer) error {
	fmt.Fprintf(w, "OPERATOR ABLATION — %d-city R1, %d evaluations, %d runs (sequential TSMO)\n",
		a.N, a.Evals, a.Runs)
	fmt.Fprintf(w, "%-18s %20s %10s %8s\n", "Operator set", "best distance", "vehicles", "no-feas")
	for _, row := range a.Rows {
		fmt.Fprintf(w, "%-18s %12.2f±%-7.2f %10.2f %8d\n",
			row.Name, row.Dist, row.DistStd, row.Veh, row.Fails)
	}
	return nil
}
