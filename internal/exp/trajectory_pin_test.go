package exp

import (
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/deme"
	"repro/internal/vrptw"
)

// trajectoryPinGolden holds the pinned output of trajectoryPinOutput.
const trajectoryPinGolden = "testdata/trajectory_pin.golden"

// trajectoryRow renders one recorded trajectory as a pin row: its point
// count, selected and stale counts, and a digest of every point in order
// (iteration, birth iteration, objective bits, selected flag).
func trajectoryRow(name string, traj *core.Trajectory) string {
	h := sha256.New()
	selected, stale := 0, 0
	for _, p := range traj.Points {
		fmt.Fprintf(h, "%d %d %016x %016x %016x %t\n", p.Iteration, p.Born,
			math.Float64bits(p.Obj.Distance), math.Float64bits(p.Obj.Vehicles),
			math.Float64bits(p.Obj.Tardiness), p.Selected)
		if p.Selected {
			selected++
		}
		if p.Born < p.Iteration-1 {
			stale++
		}
	}
	return fmt.Sprintf("%s points=%d selected=%d stale=%d digest=%x\n",
		name, len(traj.Points), selected, stale, h.Sum(nil)[:12])
}

// trajectoryPinOutput records the search trajectories the recorder sees:
// RunFigure1's asynchronous run (P=3) and, on the same simulator, the
// sequential variant dense and granular and the synchronous and
// collaborative variants (P=3), each with RecordTrajectory set.
func trajectoryPinOutput(t *testing.T) string {
	t.Helper()
	var out strings.Builder
	traj, err := RunFigure1(40, 3, 3000, 2007)
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(trajectoryRow("figure1/asynchronous", traj))

	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name      string
		alg       core.Algorithm
		procs     int
		granularK int
	}{
		{"sequential/dense", core.Sequential, 1, 0},
		{"sequential/granular-5", core.Sequential, 1, 5},
		{"synchronous/dense", core.Synchronous, 3, 0},
		{"collaborative/dense", core.Collaborative, 3, 0},
	} {
		cfg := core.DefaultConfig()
		cfg.MaxEvaluations = 3000
		cfg.NeighborhoodSize = 50
		cfg.Processors = run.procs
		cfg.GranularK = run.granularK
		cfg.Seed = 5
		cfg.RecordTrajectory = true
		res, err := core.Run(run.alg, in, cfg, deme.NewSim(deme.Origin3800()))
		if err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		out.WriteString(trajectoryRow(run.name, res.Trajectory))
	}
	return out.String()
}

// TestTrajectoryPinned pins every point the trajectory recorder receives —
// the candidates of each iteration with their birth iterations, then the
// current solution — so a change to what the search step records, or in
// which order, fails here. The golden was written before the step's
// candidate handling was reworked and is never edited in a refactor.
func TestTrajectoryPinned(t *testing.T) {
	want, err := os.ReadFile(trajectoryPinGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := trajectoryPinOutput(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", trajectoryPinGolden, i+1, g, w)
		}
	}
}
