// Command tsmo runs one TSMO variant on one CVRPTW instance and prints the
// resulting non-dominated front.
//
// Usage examples:
//
//	tsmo -alg asynchronous -procs 6 -class R1 -n 400 -evals 100000
//	tsmo -alg sequential -instance r101.txt -evals 20000 -json out.json
//	tsmo -alg collaborative -procs 3 -backend goroutine -class C2 -n 100
//	tsmo -alg asynchronous -procs 6 -telemetry run.jsonl -log-level info
//	tsmo -backend goroutine -pprof localhost:6060 -cpuprofile cpu.prof
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/resultio"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// options collects every flag of one invocation.
type options struct {
	algName  string
	procs    int
	islands  int
	class    string
	n        int
	seed     uint64
	instSeed uint64
	instFile string
	evals    int
	nbh      int
	tenure   int
	archive  int
	restart  int
	granular int
	backend  string
	faults   string
	jsonOut  string
	trajOut  string
	all      bool
	routes   bool

	// Observability.
	telemetryOut string
	logLevel     string
	pprofAddr    string
	cpuProfile   string
	memProfile   string
	sampleEvery  int
}

func main() {
	var o options
	flag.StringVar(&o.algName, "alg", "sequential", "algorithm: sequential, synchronous, asynchronous, collaborative, combined")
	flag.IntVar(&o.procs, "procs", 1, "number of processes for the parallel variants")
	flag.IntVar(&o.islands, "islands", 0, "islands for the combined variant (0 = sqrt(procs))")
	flag.StringVar(&o.class, "class", "R1", "generated instance class (R1, C1, RC1, R2, C2, RC2)")
	flag.IntVar(&o.n, "n", 100, "generated instance size (customers)")
	flag.Uint64Var(&o.seed, "seed", 1, "run seed")
	flag.Uint64Var(&o.instSeed, "instance-seed", 1, "generated instance seed")
	flag.StringVar(&o.instFile, "instance", "", "Solomon-format instance file (overrides -class/-n)")
	flag.IntVar(&o.evals, "evals", 20000, "evaluation budget")
	flag.IntVar(&o.nbh, "neighborhood", 200, "neighborhood size")
	flag.IntVar(&o.tenure, "tenure", 20, "tabu tenure")
	flag.IntVar(&o.archive, "archive", 20, "archive capacity")
	flag.IntVar(&o.restart, "restart", 100, "restart after this many stagnant iterations")
	flag.IntVar(&o.granular, "granular", 0, "granular neighborhoods: draw moves from the k-nearest arc graph (0 = full neighborhoods)")
	flag.StringVar(&o.backend, "backend", "sim", "runtime backend: sim (deterministic Origin 3800) or goroutine")
	flag.StringVar(&o.faults, "faults", "", `inject faults, e.g. "1:crash@5;0:drop=0.2,tags=2;*:skew=0.1" (see deme.ParseFaultPlans)`)
	flag.StringVar(&o.jsonOut, "json", "", "write the front as JSON to this file")
	flag.StringVar(&o.trajOut, "trajectory", "", "record the Figure-1 trajectory CSV to this file")
	flag.BoolVar(&o.all, "all", false, "print infeasible front members too")
	flag.BoolVar(&o.routes, "routes", false, "print the route sheet of the best solution")
	flag.StringVar(&o.telemetryOut, "telemetry", "", "write the JSONL telemetry run report (events + summary counters) to this file")
	flag.StringVar(&o.logLevel, "log-level", "", "enable the structured slog event stream on stderr: debug, info, warn or error")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof + expvar + /telemetry on this address (e.g. localhost:6060)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write a heap profile taken after the run to this file")
	flag.IntVar(&o.sampleEvery, "sample", 0, "record a telemetry front-quality snapshot every this many evaluations (0 with -telemetry: evals/20)")
	version := flag.Bool("version", false, "print the version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}

	// SIGINT/SIGTERM cancel the run's context: the search stops within
	// one iteration and the partial front (and any -json/-trajectory/
	// -telemetry outputs) is still written. A second signal kills the
	// process the usual way.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "tsmo:", err)
		os.Exit(1)
	}
}

// setupTelemetry builds the telemetry layer from the observability flags;
// it returns nil (disabled) when none was given.
func setupTelemetry(o options) (*telemetry.Telemetry, error) {
	if o.telemetryOut == "" && o.logLevel == "" && o.pprofAddr == "" {
		return nil, nil
	}
	var w *telemetry.Writer
	if o.telemetryOut != "" {
		var err error
		if w, err = telemetry.OpenWriter(o.telemetryOut); err != nil {
			return nil, err
		}
	}
	var log *slog.Logger
	if o.logLevel != "" {
		level, err := telemetry.ParseLevel(o.logLevel)
		if err != nil {
			return nil, err
		}
		log = telemetry.NewLogger(os.Stderr, level)
	}
	return telemetry.New(log, w), nil
}

func run(ctx context.Context, o options) error {
	alg, err := core.ParseAlgorithm(o.algName)
	if err != nil {
		return err
	}

	var in *vrptw.Instance
	if o.instFile != "" {
		f, err := os.Open(o.instFile)
		if err != nil {
			return err
		}
		in, err = vrptw.ParseSolomon(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		cl, err := vrptw.ParseClass(o.class)
		if err != nil {
			return err
		}
		in, err = vrptw.Generate(vrptw.GenConfig{Class: cl, N: o.n, Seed: o.instSeed})
		if err != nil {
			return err
		}
	}

	tel, err := setupTelemetry(o)
	if err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.MaxEvaluations = o.evals
	cfg.NeighborhoodSize = o.nbh
	cfg.TabuTenure = o.tenure
	cfg.ArchiveSize = o.archive
	cfg.RestartIterations = o.restart
	cfg.Processors = o.procs
	cfg.Islands = o.islands
	cfg.Seed = o.seed
	cfg.GranularK = o.granular
	cfg.RecordTrajectory = o.trajOut != ""
	cfg.SampleEvery = o.sampleEvery
	cfg.Telemetry = tel
	if tel.Enabled() && cfg.SampleEvery == 0 {
		// Default snapshot cadence: ~20 front-quality snapshots per run.
		cfg.SampleEvery = max(o.evals/20, 1)
	}

	if o.pprofAddr != "" {
		srv, err := telemetry.Serve(o.pprofAddr, tel)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pprof/expvar listening on http://%s/debug/pprof\n", srv.Addr)
	}
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var rt deme.Runtime
	switch o.backend {
	case "sim":
		rt = deme.NewSim(deme.Origin3800())
	case "goroutine":
		rt = deme.NewGoroutine()
	default:
		return fmt.Errorf("unknown backend %q", o.backend)
	}
	if o.faults != "" {
		plans, err := deme.ParseFaultPlans(o.faults)
		if err != nil {
			return err
		}
		frt := deme.NewFaulty(rt, plans)
		frt.Telemetry = tel
		rt = frt
	}

	tel.Event(telemetry.Record{Kind: "run_start", Values: map[string]any{
		"instance":  in.Name,
		"customers": in.N(),
		"algorithm": alg.String(),
		"procs":     o.procs,
		"evals":     o.evals,
		"backend":   o.backend,
		"seed":      o.seed,
	}})
	tel.Logger().Info("run starting", "instance", in.Name, "algorithm", alg.String(), "procs", o.procs)

	res, err := core.RunContext(ctx, alg, in, cfg, rt)
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "tsmo: interrupted — reporting the partial result")
	}

	fmt.Printf("instance %s (N=%d, R=%d, capacity %.0f)\n", in.Name, in.N(), in.Vehicles, in.Capacity)
	fmt.Printf("%s, P=%d: %d evaluations, %d iterations, runtime %.1f s (%s backend)\n",
		res.Algorithm, res.Processors, res.Evaluations, res.Iterations, res.Elapsed, o.backend)

	front := res.FeasibleFront()
	if o.all {
		front = res.Front
	}
	sort.Slice(front, func(i, j int) bool { return front[i].Obj.Distance < front[j].Obj.Distance })
	fmt.Printf("front (%d solutions%s):\n", len(front), map[bool]string{true: "", false: ", feasible only"}[o.all])
	fmt.Printf("%12s %10s %12s\n", "distance", "vehicles", "tardiness")
	for _, s := range front {
		fmt.Printf("%12.2f %10.0f %12.2f\n", s.Obj.Distance, s.Obj.Vehicles, s.Obj.Tardiness)
	}

	if o.routes && len(front) > 0 {
		fmt.Println()
		if err := solution.WriteRoutes(os.Stdout, in, front[0]); err != nil {
			return err
		}
	}

	if o.jsonOut != "" {
		f, err := os.Create(o.jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := resultio.Write(f, resultio.FromResult(in.Name, res, true)); err != nil {
			return err
		}
		fmt.Printf("front written to %s\n", o.jsonOut)
	}
	if o.trajOut != "" && res.Trajectory != nil {
		f, err := os.Create(o.trajOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Trajectory.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("trajectory (%d points) written to %s\n", len(res.Trajectory.Points), o.trajOut)
	}

	if tel.Enabled() {
		// The final record the report tooling greps for: run totals plus
		// every instrument's value.
		tel.Event(telemetry.Record{Kind: "summary", Values: map[string]any{
			"instance":        in.Name,
			"algorithm":       res.Algorithm.String(),
			"procs":           res.Processors,
			"evaluations":     res.Evaluations,
			"iterations":      res.Iterations,
			"shares":          res.Shares,
			"elapsed_seconds": res.Elapsed,
			"front_size":      len(res.Front),
			"counters":        tel.Snapshot(),
		}})
		if err := tel.Close(); err != nil {
			return err
		}
		if o.telemetryOut != "" {
			fmt.Printf("telemetry report written to %s\n", o.telemetryOut)
		}
	}
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
	}
	return nil
}
