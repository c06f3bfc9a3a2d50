// Command experiments regenerates the paper's evaluation: Tables I–IV and
// the Figure 1 trajectory.
//
//	experiments -table I -scale quick
//	experiments -table all -scale medium -md results.md
//	experiments -figure1 -plot > figure1.txt
//
// Figure 1 is a search trajectory of the asynchronous TSMO in objective
// space, with each candidate tagged by the iteration its neighborhood was
// generated in and selected current solutions marked. Its CSV (-o) can be
// plotted directly (distance vs. vehicles, colored by the born column);
// -plot also draws it. The checked-in figure1.csv and figure1.txt come
// from the last command above.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/telemetry"
	"repro/internal/viz"
)

func main() {
	var (
		table    = flag.String("table", "all", `table to reproduce: I, II, III, IV or "all"`)
		scale    = flag.String("scale", "quick", "experiment scale: quick, medium or paper")
		seed     = flag.Uint64("seed", 2007, "experiment seed")
		mdOut    = flag.String("md", "", "append markdown tables to this file")
		figure1  = flag.Bool("figure1", false, "generate the Figure 1 trajectory instead of tables")
		figN     = flag.Int("fig-n", 100, "Figure 1 instance size")
		figP     = flag.Int("fig-procs", 3, "Figure 1 processor count")
		figE     = flag.Int("fig-evals", 5000, "Figure 1 evaluation budget")
		out      = flag.String("o", "figure1.csv", "Figure 1 CSV output path (- for stdout)")
		plot     = flag.Bool("plot", false, "also draw an ASCII rendition of Figure 1")
		quiet    = flag.Bool("q", false, "suppress progress output")
		combined = flag.Bool("combined", false, "also run the future-work combined variant (P >= 4 blocks)")
		extra    = flag.String("extra", "", `extra experiment instead of the tables: "equal-time" (the paper's §IV remark), "operators" (neighborhood ablation) or "granular" (full vs k-nearest quality parity)`)
		pprofA   = flag.String("pprof", "", "serve net/http/pprof + expvar on this address while the experiments run (e.g. localhost:6060)")
		logLevel = flag.String("log-level", "", "enable a structured slog progress stream on stderr: debug, info, warn or error")
		version  = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}

	if *logLevel != "" {
		level, err := telemetry.ParseLevel(*logLevel)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		logger := telemetry.NewLogger(os.Stderr, level)
		logger.Info("experiments starting", "table", *table, "scale", *scale, "seed", *seed)
		defer logger.Info("experiments done")
	}
	if *pprofA != "" {
		srv, err := telemetry.Serve(*pprofA, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pprof/expvar listening on http://%s/debug/pprof\n", srv.Addr)
	}

	var err error
	switch {
	case *extra != "":
		err = runExtra(*extra, *seed)
	case *figure1:
		err = runFigure1(*figN, *figP, *figE, *seed, *out, *plot)
	default:
		err = run(*table, *scale, *seed, *mdOut, *quiet, *combined)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func runExtra(kind string, seed uint64) error {
	switch kind {
	case "equal-time":
		res, err := exp.RunEqualTime(400, 600, []int{3, 6, 12}, 5, seed)
		if err != nil {
			return err
		}
		return res.Render(os.Stdout)
	case "operators":
		res, err := exp.RunOperatorAblation(60, 6000, 3, seed)
		if err != nil {
			return err
		}
		return res.Render(os.Stdout)
	case "granular":
		res, err := exp.RunGranularParity([]int{100, 200}, 60000, 50, 20, seed)
		if err != nil {
			return err
		}
		return res.Render(os.Stdout)
	}
	return fmt.Errorf("unknown extra experiment %q", kind)
}

// runFigure1 writes the Figure 1 trajectory's CSV to out (- for stdout)
// and, with plot, draws it on stdout.
func runFigure1(n, procs, evals int, seed uint64, out string, plot bool) error {
	traj, err := exp.RunFigure1(n, procs, evals, seed)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := traj.WriteCSV(w); err != nil {
		return err
	}
	if out != "-" {
		fmt.Printf("%d trajectory points written to %s\n", len(traj.Points), out)
	}
	if plot {
		return renderPlot(os.Stdout, traj)
	}
	return nil
}

// renderPlot draws the trajectory like the paper's Figure 1: candidate
// solutions as dots, stale candidates (born in an earlier iteration than
// they were considered, the asynchronous hallmark) as '+', and the
// selected current solutions as 'O', in the distance/tardiness plane.
func renderPlot(w io.Writer, traj *core.Trajectory) error {
	cand := viz.Series{Name: "candidate", Glyph: '.'}
	stale := viz.Series{Name: "stale candidate", Glyph: '+'}
	sel := viz.Series{Name: "selected current", Glyph: 'O'}
	for _, p := range traj.Points {
		switch {
		case p.Selected:
			sel.X = append(sel.X, p.Obj.Distance)
			sel.Y = append(sel.Y, p.Obj.Tardiness)
		case p.Born < p.Iteration-1:
			stale.X = append(stale.X, p.Obj.Distance)
			stale.Y = append(stale.Y, p.Obj.Tardiness)
		default:
			cand.X = append(cand.X, p.Obj.Distance)
			cand.Y = append(cand.Y, p.Obj.Tardiness)
		}
	}
	s := &viz.Scatter{Width: 76, Height: 24, XLabel: "f1: total distance", YLabel: "f3: tardiness"}
	return s.Render(w, []viz.Series{cand, stale, sel})
}

func run(table, scaleName string, seed uint64, mdOut string, quiet, combined bool) error {
	scale, err := exp.ScaleByName(scaleName)
	if err != nil {
		return err
	}
	scale.IncludeCombined = combined
	var specs []exp.TableSpec
	if table == "all" {
		specs = exp.Tables()
	} else {
		spec, err := exp.TableByID(table)
		if err != nil {
			return err
		}
		specs = []exp.TableSpec{spec}
	}

	logf := func(format string, args ...any) {
		if !quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	var md *os.File
	if mdOut != "" {
		md, err = os.OpenFile(mdOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer md.Close()
	}

	for _, spec := range specs {
		res, err := exp.RunTable(spec, scale, seed, logf)
		if err != nil {
			return err
		}
		if err := res.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		if md != nil {
			if err := res.RenderMarkdown(md); err != nil {
				return err
			}
		}
	}
	return nil
}
