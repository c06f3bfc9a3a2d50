package operators

// The overlapped sweep. CandidatesInto proposes moves on the calling
// goroutine (the producer) and publishes them, publishBatch at a time, to
// a helper goroutine the Generator owns, which claims published moves in
// index order and writes their objectives while proposal goes on. Once
// proposal ends the producer evaluates whatever is unclaimed itself and
// waits only for the moves the helper has already claimed. Every objective
// is a pure function of (solution, move), so who evaluates a move changes
// no bit of the sweep's output, and with no helper engaged the producer's
// claim loop evaluates every move: there is one sweep, not two.
//
// Each goroutine folds the moves it evaluates into a non-dominated front
// of its own (pareto.Fold); after its wait the producer folds the
// helper's front into its own and sorts it. Dominance is a strict partial
// order, so the merged front holds the sweep's non-dominated moves
// whatever the order of folding (DESIGN §11, "The sweep's front").
//
// The protocol (DESIGN §11, "One evaluation path, overlapped with proposal"):
//   - The producer binds the schedule cache, sizes buf.Data/buf.Objs to
//     the request and gives both fronts room for every move before
//     anything is published; no slice is reallocated during the sweep.
//   - A claim is a compare-and-swap on the word generation<<32 | next
//     index, and a claimer loads that word before the published count. A
//     claim that succeeds thus saw its sweep's generation before it read
//     the count, so the count is its own sweep's, and a claimer still
//     holding a word of an earlier sweep fails its swap.
//   - The published count is stored every publishBatch moves, and the
//     producer-written count sits on another cache line than the claim
//     word and the done count the helper writes.
//   - The helper writes its front before the done count of the move it
//     folded, and the producer reads it only after its wait on done, then
//     empties it at the start of its next sweep, before the helper can
//     claim a move of it.
//   - The helper polls between sweeps, yielding every helperPolls idle
//     polls, and exits once it has claimed nothing for helperIdle or no
//     CPU is spare (SpareCPU); the next sweep starts a new one.

import (
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/pareto"
	"repro/internal/rng"
	"repro/internal/solution"
	"repro/internal/telemetry"
)

// searchProcs counts the search processes running in this OS process
// (AddSearchProcs).
var searchProcs atomic.Int64

// AddSearchProcs adds n, negative to remove, to the count of search
// processes running in this OS process. A run registers its processes for
// as long as it lasts (core.RunContext); SpareCPU compares GOMAXPROCS with
// the count.
func AddSearchProcs(n int) { searchProcs.Add(int64(n)) }

// SpareCPU reports whether a CPU is spare: GOMAXPROCS exceeds 1 and the
// search processes registered with AddSearchProcs. It serves two callers.
// A sweep engages a helper only while a CPU is spare, so a helper never
// takes a CPU a search process needs. A searcher yields its processor
// every millisecond while a CPU is spare, since the idle processor runs
// the goroutines it wakes and more yields would only make it hop between
// CPUs, and after every step while none is, since those goroutines then
// wait for its yield (core's searcher.yield, DESIGN §9).
func SpareCPU() bool {
	p := int64(runtime.GOMAXPROCS(0))
	return p > 1 && p > searchProcs.Load()
}

const (
	// publishBatch is how many moves the producer proposes between two
	// stores of the published count. On a scratch prototype, publishing
	// every move with all counters on one cache line gained 3.5–7.5% of
	// throughput where batches of 8 on separate lines gained 9–20%.
	publishBatch = 8
	// helperIdle is how long a helper polls without claiming a move before
	// it exits. Two sweeps of one search are 25–30 µs apart at the median
	// and 99% are under 105 µs apart (R1, N=400, k=20); a helper woken
	// from a channel instead started ~60 µs late, after nearly every move
	// of the sweep was proposed.
	helperIdle = 200 * time.Microsecond
	// helperPolls is how many idle polls a helper makes between two yields
	// of its processor, so a goroutine queued behind it waits about a
	// microsecond, not until Go preempts it.
	helperPolls = 32
)

// cacheLine pads the fields of a sweep apart.
type cacheLine [64]byte

// sweep is the state a Generator shares with its helper goroutine.
type sweep struct {
	// The sweep's inputs, written by the producer before it stores the
	// sweep's generation into claim; read-only until the sweep ends.
	s    *solution.Solution
	e    *solution.Eval
	data []MoveData
	objs []solution.Objectives

	gen      uint32 // the producer's generation counter
	starts   int    // helpers started, for tests
	panicked any    // a helper's panic, re-raised by the producer

	_         cacheLine
	published atomic.Uint32 // moves of data the helper may claim
	_         cacheLine
	claim     atomic.Uint64 // generation<<32 | next unclaimed index
	done      atomic.Uint32 // moves the helper evaluated this sweep
	running   atomic.Bool   // a helper goroutine is live
	_         cacheLine

	// The front of the moves the helper evaluated: written by the helper
	// as it evaluates, read by the producer after its wait on done and
	// emptied by the producer before the next sweep is published.
	front []int
	_     cacheLine
}

// CandidatesInto is the hot-path candidate sweep: the moves MovesInto
// proposes, each with the objectives EvalDataInto gives it, and the
// sweep's non-dominated front in buf.Front, entirely within buf's
// reusable storage — one route-schedule rebuild per distinct s, then
// O(1)–O(segment) per candidate instead of one full materialization. When
// a CPU is spare, a helper goroutine evaluates the moves while they are
// proposed (see above); the result is the same bits either way. Every
// returned candidate counts as one objective-function evaluation.
func (g *Generator) CandidatesInto(buf *CandidateBuffer, s *solution.Solution, r *rng.Rand, size int) {
	sw := &g.sw
	size = max(size, 0)
	buf.Data, buf.Objs = resize(buf.Data, size), resize(buf.Objs, size)
	// Room for every move, so neither fold allocates.
	buf.Front, sw.front = resize(buf.Front, size)[:0], resize(sw.front, size)[:0]
	sw.s, sw.e, sw.data, sw.objs = s, g.eval(s), buf.Data, buf.Objs
	sw.gen++
	sw.published.Store(0)
	sw.done.Store(0)
	sw.claim.Store(uint64(sw.gen) << 32)
	helped := size > 0 && SpareCPU()
	if helped && sw.running.CompareAndSwap(false, true) {
		sw.starts++
		go g.helpFn()
	}
	n := g.propose(buf, s, r, helped)
	if helped {
		sw.published.Store(uint32(n))
	}

	// Evaluate what the helper has not claimed, half the remainder per
	// claim so a helper still claiming one at a time takes its share.
	own := 0
	for {
		c := sw.claim.Load()
		i := int(uint32(c))
		if i >= n {
			break
		}
		k := max(1, (n-i)/2)
		if !sw.claim.CompareAndSwap(c, c+uint64(k)) {
			continue
		}
		for j := i; j < i+k; j++ {
			buf.Objs[j] = buf.Data[j].Delta(g.in, s, sw.e)
			buf.Front = pareto.Fold(buf.Front, buf.Objs, j)
		}
		own += k
	}
	for spins := 0; sw.done.Load() != uint32(n-own); spins++ {
		if spins%64 == 63 {
			runtime.Gosched()
		}
	}
	if v := sw.panicked; v != nil {
		sw.panicked = nil
		panic(v)
	}
	for _, j := range sw.front {
		buf.Front = pareto.Fold(buf.Front, buf.Objs, j)
	}
	slices.Sort(buf.Front)
	g.Telemetry.Add(telemetry.DeltaFast, n)
	buf.Data, buf.Objs = buf.Data[:n], buf.Objs[:n]
}

// help is the helper goroutine: it claims published moves in index order,
// evaluates them and folds them into its front, polling between sweeps,
// until it has claimed nothing for helperIdle or no CPU is spare. A
// panic ends it too, and the sweep that claimed the move re-raises it.
func (g *Generator) help() {
	sw := &g.sw
	defer func() {
		// A panic evaluating a move is the sweep's: hand it to the
		// producer, which raises it on its own goroutine, where the
		// runtime turns a process's panic into the run's error.
		if v := recover(); v != nil {
			sw.panicked = v
			sw.running.Store(false)
			sw.done.Add(1)
		}
	}()
	last, busy := time.Now(), false
	for idle := 0; ; {
		c := sw.claim.Load() // before the published count: see sweep
		if i := uint32(c); i < sw.published.Load() {
			if sw.claim.CompareAndSwap(c, c+1) {
				sw.objs[i] = sw.data[i].Delta(g.in, sw.s, sw.e)
				sw.front = pareto.Fold(sw.front, sw.objs, int(i))
				sw.done.Add(1)
				busy = true
			}
			continue
		}
		if idle++; idle < helperPolls {
			continue
		}
		idle = 0
		runtime.Gosched()
		now := time.Now()
		if busy {
			last, busy = now, false
		}
		if now.Sub(last) >= helperIdle || !SpareCPU() {
			sw.running.Store(false)
			return
		}
	}
}

// resize returns s with length n, reusing its storage when it has room.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
