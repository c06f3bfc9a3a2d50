package operators

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/pareto"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/telemetry"
	"repro/internal/vrptw"
)

// sweepSizes are the sweep sizes TestOverlappedSweepMatchesSerial runs on
// every solution: the paper's neighborhood, and sizes around and below the
// publish batch, whose sweeps end within a batch or two of their start so
// the helper meets many sweep boundaries.
var sweepSizes = []int{200, 1, 2, 7, 8, 9, 17, 3, 64, 1, 5}

// TestOverlappedSweepMatchesSerial holds CandidatesInto, whose moves a
// helper goroutine may evaluate while they are proposed, to MovesInto and
// then EvalDataInto on a twin generator. Along searchWalks on three classes
// — applied moves, an emptied route, a restart, a derived instance — with
// granular (k=20) and dense sweeps, each with telemetry on and off, every
// sweep returns the same moves and bit-identical objectives, the front of
// those objectives, and leaves the RNG in the same state, and the delta
// and splice counters reach the same totals. Which path a sweep takes
// depends on GOMAXPROCS: `make race` runs this test at -cpu 1,2,4.
func TestOverlappedSweepMatchesSerial(t *testing.T) {
	counters := []telemetry.CounterID{telemetry.DeltaFast, telemetry.SpliceCalls,
		telemetry.SplicePrefixFolds, telemetry.SpliceSuffixEarlyExits,
		telemetry.SpliceSuffixResyncs, telemetry.SpliceFullWalks}
	for _, k := range []int{20, 0} {
		for _, telOn := range []bool{false, true} {
			var tel, twinTel *telemetry.Telemetry
			if telOn {
				tel, twinTel = telemetry.New(nil, nil), telemetry.New(nil, nil)
			}
			r, rr := rng.New(11), rng.New(11)
			var g, twin *Generator
			var buf, twinBuf CandidateBuffer
			var objs []solution.Objectives
			sweeps, helped := 0, 0
			for _, class := range []uint64{0, 3, 5} { // R1, R2, RC2
				searchWalk(t, class, 90, 1+class, 3+class, func(in *vrptw.Instance, s *solution.Solution, _ *rng.Rand) []MoveData {
					if g == nil || g.in != in {
						if g != nil {
							helped += g.helperStarts()
						}
						g, twin = NewGenerator(in, Extended()), NewGenerator(in, Extended())
						g.Telemetry, twin.Telemetry = tel, twinTel
						if k > 0 {
							g.Granular, twin.Granular = in.NeighborLists(k), in.NeighborLists(k)
						}
					}
					for _, size := range sweepSizes {
						g.CandidatesInto(&buf, s, r, size)
						twin.MovesInto(&twinBuf, s, rr, size)
						objs = resize(objs, len(twinBuf.Data))
						twin.EvalDataInto(s, twinBuf.Data, objs)
						sweeps++
						if len(buf.Data) != len(twinBuf.Data) || len(buf.Objs) != len(buf.Data) {
							t.Fatalf("k=%d sweep %d: %d moves and %d objectives, serial %d moves",
								k, sweeps, len(buf.Data), len(buf.Objs), len(twinBuf.Data))
						}
						for i := range buf.Data {
							if buf.Data[i] != twinBuf.Data[i] {
								t.Fatalf("k=%d sweep %d move %d: %+v, serial %+v", k, sweeps, i, buf.Data[i], twinBuf.Data[i])
							}
							if !sameBits(buf.Objs[i], objs[i]) {
								t.Fatalf("k=%d sweep %d move %d (%s): objectives %+v, serial %+v",
									k, sweeps, i, buf.Data[i].Kind, buf.Objs[i], objs[i])
							}
						}
						if want := pareto.NondominatedIndices(objs); !slices.Equal(buf.Front, want) {
							t.Fatalf("k=%d sweep %d: front %v, want %v", k, sweeps, buf.Front, want)
						}
						if r.State() != rr.State() {
							t.Fatalf("k=%d sweep %d: RNG state diverged from the serial sweep", k, sweeps)
						}
					}
					return buf.Data
				})
			}
			helped += g.helperStarts()
			for _, id := range counters {
				if got, want := tel.Load(id), twinTel.Load(id); got != want {
					t.Errorf("k=%d: counter %d reads %d, serial %d", k, id, got, want)
				}
			}
			if telOn && tel.Load(telemetry.DeltaFast) == 0 {
				t.Errorf("k=%d: no delta counted", k)
			}
			t.Logf("k=%d telemetry=%v: %d sweeps, %d helpers started (GOMAXPROCS %d)",
				k, telOn, sweeps, helped, runtime.GOMAXPROCS(0))
		}
	}
}

// sameBits reports whether a and b are the same objectives bit for bit.
func sameBits(a, b solution.Objectives) bool {
	return math.Float64bits(a.Distance) == math.Float64bits(b.Distance) &&
		math.Float64bits(a.Vehicles) == math.Float64bits(b.Vehicles) &&
		math.Float64bits(a.Tardiness) == math.Float64bits(b.Tardiness)
}

// helperExitBound is how long after its generator's last sweep a helper
// must have exited: its idle window plus slack for a loaded host, where
// the helper's thread may wait for a CPU before it sees the window closed.
const helperExitBound = helperIdle + 50*time.Millisecond

// awaitHelperExit waits for g's helper to exit and returns how long that
// took, failing the test past helperExitBound.
func awaitHelperExit(t *testing.T, g *Generator) time.Duration {
	t.Helper()
	t0 := time.Now()
	for g.helperRunning() {
		if time.Since(t0) > helperExitBound {
			t.Fatalf("helper still running %v after the last sweep", helperExitBound)
		}
		time.Sleep(20 * time.Microsecond)
	}
	return time.Since(t0)
}

// sweepFixture returns a granular generator on a 100-customer instance
// and a function that runs one 200-move sweep of it on a fixed solution.
func sweepFixture(t *testing.T) (*Generator, func()) {
	t.Helper()
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := greedyFill(in)
	g := NewGenerator(in, nil)
	g.Granular = in.NeighborLists(20)
	r := rng.New(3)
	var buf CandidateBuffer
	return g, func() { g.CandidatesInto(&buf, s, r, 200) }
}

// sweptFixture is a sweepFixture after 20 sweeps.
func sweptFixture(t *testing.T) *Generator {
	t.Helper()
	g, sweep := sweepFixture(t)
	for i := 0; i < 20; i++ {
		sweep()
	}
	return g
}

// TestHelperGate checks when a sweep engages a helper: at GOMAXPROCS 2
// with fewer search processes registered it does; at GOMAXPROCS 1, or with
// as many registered as GOMAXPROCS, none starts, and a helper still live
// from earlier sweeps evaluates no move.
func TestHelperGate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if n := searchProcs.Load(); n >= 2 {
		t.Skipf("%d search processes registered", n)
	}
	if g := sweptFixture(t); g.helperStarts() == 0 {
		t.Fatal("GOMAXPROCS 2, no search process registered: no helper started")
	}

	runtime.GOMAXPROCS(1)
	if g := sweptFixture(t); g.helperStarts() != 0 {
		t.Errorf("GOMAXPROCS 1: %d helpers started", g.helperStarts())
	}
	runtime.GOMAXPROCS(2)

	AddSearchProcs(2)
	g := sweptFixture(t)
	AddSearchProcs(-2)
	if g.helperStarts() != 0 {
		t.Errorf("GOMAXPROCS 2, 2 search processes registered: %d helpers started", g.helperStarts())
	}

	g, sweep := sweepFixture(t)
	sweep()
	AddSearchProcs(2)
	defer AddSearchProcs(-2)
	for i := 0; i < 20; i++ {
		sweep()
		if n := g.helperMoves(); n != 0 {
			t.Fatalf("sweep %d with the gate shut: the helper evaluated %d moves", i, n)
		}
	}
}

// TestHelperExitsAfterLastSweep checks a started helper's lifetime: it
// exits within helperExitBound of its generator's last sweep, so no Close
// is needed and no goroutine is left behind.
func TestHelperExitsAfterLastSweep(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	if n := searchProcs.Load(); n >= 2 {
		t.Skipf("%d search processes registered", n)
	}
	g := sweptFixture(t)
	if g.helperStarts() == 0 {
		t.Fatal("no helper started")
	}
	d := awaitHelperExit(t, g)
	t.Logf("helper exited %v after the last sweep (idle window %v)", d, helperIdle)
}

// TestOverlappedSweepBackToBack runs tiny sweeps back to back, so the
// helper meets a sweep boundary every few moves with nothing in between,
// and then holds every one of them to a serial replay on a twin generator:
// same moves, bit-identical objectives, and the front of those objectives.
func TestOverlappedSweepBackToBack(t *testing.T) {
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := greedyFill(in)
	g, twin := NewGenerator(in, nil), NewGenerator(in, nil)
	g.Granular, twin.Granular = in.NeighborLists(20), in.NeighborLists(20)
	r, rr := rng.New(5), rng.New(5)
	var buf, twinBuf CandidateBuffer
	type result struct {
		data  []MoveData
		objs  []solution.Objectives
		front []int
	}
	results := make([]result, 3000)
	for i := range results {
		g.CandidatesInto(&buf, s, r, 1+i%3)
		results[i] = result{append([]MoveData(nil), buf.Data...), append([]solution.Objectives(nil), buf.Objs...),
			append([]int(nil), buf.Front...)}
	}
	var objs []solution.Objectives
	for i, res := range results {
		twin.MovesInto(&twinBuf, s, rr, 1+i%3)
		objs = resize(objs, len(twinBuf.Data))
		twin.EvalDataInto(s, twinBuf.Data, objs)
		for j := range twinBuf.Data {
			if res.data[j] != twinBuf.Data[j] || !sameBits(res.objs[j], objs[j]) {
				t.Fatalf("sweep %d move %d: %+v %+v, serial %+v %+v", i, j, res.data[j], res.objs[j], twinBuf.Data[j], objs[j])
			}
		}
		if want := pareto.NondominatedIndices(objs); !slices.Equal(res.front, want) {
			t.Fatalf("sweep %d: front %v, want %v", i, res.front, want)
		}
	}
}

// TestHelperPanicReachesProducer checks that a panic evaluating a move on
// the helper is raised by the producer's CandidatesInto, on the search
// process's goroutine, rather than ending the OS process: the helper is
// handed a move of no kind, whose Delta panics.
func TestHelperPanicReachesProducer(t *testing.T) {
	g, sweep := sweepFixture(t)
	sweep()
	sw := &g.sw
	sw.data, sw.objs = []MoveData{{Kind: MoveKind(200)}}, make([]solution.Objectives, 1)
	sw.gen++
	sw.published.Store(0)
	sw.done.Store(0)
	sw.claim.Store(uint64(sw.gen) << 32)
	sw.published.Store(1)
	// The helper the sweep above left running may reach its idle exit
	// before it claims the move, so start one whenever none is live.
	for sw.done.Load() == 0 {
		if sw.running.CompareAndSwap(false, true) {
			go g.helpFn()
		}
		runtime.Gosched()
	}
	if sw.panicked == nil {
		t.Fatal("the helper's panic was not recorded")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("the next sweep did not raise the helper's panic")
		}
		if sw.panicked != nil {
			t.Error("the panic was raised but not cleared")
		}
	}()
	sweep()
}
