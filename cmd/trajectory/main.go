// Command trajectory regenerates the data behind the paper's Figure 1: a
// search trajectory of the asynchronous TSMO in objective space, with each
// candidate tagged by the iteration its neighborhood was generated in and
// selected current solutions marked. The CSV can be plotted directly
// (distance vs. vehicles, colored by the born column). Its defaults are
// those of `experiments -figure1`, so both write the same run; the
// checked-in figure1.csv and figure1.txt come from
//
//	trajectory -plot > figure1.txt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/viz"
)

func main() {
	var (
		n       = flag.Int("n", 100, "instance size (customers)")
		procs   = flag.Int("procs", 3, "processor count")
		evals   = flag.Int("evals", 5000, "evaluation budget")
		seed    = flag.Uint64("seed", 2007, "run seed")
		out     = flag.String("o", "figure1.csv", "output CSV path (- for stdout)")
		plot    = flag.Bool("plot", false, "also draw an ASCII rendition of Figure 1")
		version = flag.Bool("version", false, "print the version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Version())
		return
	}

	if err := run(*n, *procs, *evals, *seed, *out, *plot); err != nil {
		fmt.Fprintln(os.Stderr, "trajectory:", err)
		os.Exit(1)
	}
}

func run(n, procs, evals int, seed uint64, out string, plot bool) error {
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
		if err := renderPlot(os.Stdout, traj); err != nil {
			return err
		}
	}
	return nil
}

// renderPlot draws the trajectory like the paper's Figure 1: candidate
// solutions as dots, stale candidates (born in an earlier iteration than
// they were considered, the asynchronous hallmark) as '+', and the
// selected current solutions as 'O', in the distance/tardiness plane.
func renderPlot(w *os.File, traj *core.Trajectory) error {
	var cand, stale, sel viz.Series
	cand = viz.Series{Name: "candidate", Glyph: '.'}
	stale = viz.Series{Name: "stale candidate", Glyph: '+'}
	sel = viz.Series{Name: "selected current", Glyph: 'O'}
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
