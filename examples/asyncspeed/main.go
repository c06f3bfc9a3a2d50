// Asyncspeed reproduces the paper's headline runtime comparison in
// miniature: the synchronous and asynchronous master–worker TSMO on the
// simulated SGI Origin 3800 across processor counts. The asynchronous
// master, which stops waiting as soon as Algorithm 2's decision function
// fires, sails past the stragglers the synchronous barrier waits for.
package main

import (
	"context"
	"fmt"
	"os"

	"repro"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "asyncspeed:", err)
		os.Exit(1)
	}
}

func run() error {
	in, err := repro.Generate(repro.GenConfig{Class: repro.R1, N: 400, Seed: 1})
	if err != nil {
		return err
	}
	base := repro.DefaultConfig()
	base.MaxEvaluations = 10000 // 1/10 of the paper's budget
	base.Seed = 9

	run := func(alg repro.Algorithm, procs int, machineSeed uint64) (float64, error) {
		cfg := base
		cfg.Processors = procs
		m := repro.Origin3800()
		m.Seed = machineSeed
		res, err := repro.SolveOn(context.Background(), alg, in, cfg, repro.NewSimRuntime(m))
		if err != nil {
			return 0, err
		}
		return res.Elapsed, nil
	}
	avg := func(alg repro.Algorithm, procs int) (float64, error) {
		const reps = 3
		var sum float64
		for i := uint64(0); i < reps; i++ {
			e, err := run(alg, procs, 100+i)
			if err != nil {
				return 0, err
			}
			sum += e
		}
		return sum / reps, nil
	}

	seq, err := avg(repro.Sequential, 1)
	if err != nil {
		return err
	}
	fmt.Printf("sequential TSMO on %s: %.1f simulated seconds (avg of 3 machine placements)\n\n", in.Name, seq)
	fmt.Printf("%6s %16s %16s %12s %12s\n", "procs", "sync runtime", "async runtime", "sync spd", "async spd")
	for _, p := range []int{3, 6, 12} {
		sy, err := avg(repro.Synchronous, p)
		if err != nil {
			return err
		}
		as, err := avg(repro.Asynchronous, p)
		if err != nil {
			return err
		}
		fmt.Printf("%6d %15.1fs %15.1fs %+11.1f%% %+11.1f%%\n",
			p, sy, as, (seq/sy-1)*100, (seq/as-1)*100)
	}
	fmt.Println("\nspeedup = (T_seq/T_par - 1)·100%, the paper's convention.")
	fmt.Println("note the asynchronous advantage and its dip at 12 processors, where the")
	fmt.Println("master's per-message handling becomes the bottleneck (paper §IV).")

	// Where does the synchronous variant lose its time? Ask the
	// simulator for per-process utilization at P=6.
	fmt.Println("\nprocessor utilization at P=6 (compute share of lifetime):")
	for _, alg := range []repro.Algorithm{repro.Synchronous, repro.Asynchronous} {
		cfg := base
		cfg.Processors = 6
		rt := repro.NewSimRuntime(repro.Origin3800())
		if _, err := repro.SolveOn(context.Background(), alg, in, cfg, rt); err != nil {
			return err
		}
		fmt.Printf("  %-14s", alg.String())
		for id, st := range rt.Stats() {
			role := "w"
			if id == 0 {
				role = "M"
			}
			fmt.Printf("  %s%d %3.0f%%", role, id, st.Utilization()*100)
		}
		fmt.Println()
	}
	fmt.Println("the synchronous workers idle in the barrier; the asynchronous ones don't.")
	return nil
}
