// Package deme is a small distributed-metaheuristics process runtime in the
// spirit of the DEME framework the paper's implementation builds on. The
// parallel Tabu Search variants are written once against the Proc
// interface — processes that compute, exchange messages and observe time —
// and can then execute on either of two backends:
//
//   - Sim: a deterministic discrete-event simulation of a parallel machine
//     (virtual clocks, per-message latency and bandwidth, send/receive CPU
//     overheads, per-processor compute jitter). This reproduces the
//     paper's timing phenomenology — barrier waits, asynchronous overlap,
//     master bottlenecks, communication overhead — on any host, including
//     single-core CI machines, and makes runtime/speedup measurements
//     reproducible. The Origin3800 preset models the paper's testbed.
//
//   - Goroutine: real concurrency on the host using goroutines and
//     mailboxes, for use on actual multicore hardware. Compute is a no-op
//     (the surrounding real work takes real time) and Now is the wall
//     clock.
//
// Time is expressed in modeled seconds throughout.
package deme

import (
	"context"
	"math"

	"repro/internal/rng"
)

// Message is the unit of inter-process communication.
type Message struct {
	From  int // sender process ID, filled in by the runtime
	Tag   int // application-defined message kind
	Data  any // payload; shared by reference, treat as immutable
	Bytes int // modeled payload size for bandwidth accounting (0 = negligible)
}

// Proc is the view a process body has of the runtime. All methods must be
// called only from the body's own goroutine.
type Proc interface {
	// ID returns this process's rank in [0, P).
	ID() int
	// P returns the number of processes in the run.
	P() int
	// Now returns the process-local time in seconds: virtual time on the
	// simulator, wall time on the goroutine backend.
	Now() float64
	// Compute charges seconds of modeled CPU work to this process. On
	// the simulator this advances the virtual clock (with jitter); on
	// the goroutine backend it is a no-op.
	Compute(seconds float64)
	// Send delivers an asynchronous message to process `to`. It never
	// blocks. Sending to self is allowed.
	Send(to, tag int, data any, bytes int)
	// TryRecv returns a pending message without blocking; ok is false
	// when none has arrived yet.
	TryRecv() (Message, bool)
	// RecvTimeout blocks until a message arrives or the deadline
	// now+seconds passes; ok is false on timeout, on cancellation, or
	// when every other process has returned. seconds must be finite (a
	// negative value polls): a non-finite timeout panics with
	// "deme: RecvTimeout needs a finite timeout", which Run reports as
	// the run's error.
	RecvTimeout(seconds float64) (Message, bool)
	// Alive reports whether process id's body is still running. A process
	// whose body returned — normally or through a fault — is not alive;
	// masters use this to stop waiting on dead workers.
	Alive(id int) bool
}

// recvSeconds checks a RecvTimeout argument: a non-finite timeout panics,
// a negative one polls.
func recvSeconds(seconds float64) float64 {
	if math.IsInf(seconds, 0) || math.IsNaN(seconds) {
		panic("deme: RecvTimeout needs a finite timeout")
	}
	return max(seconds, 0)
}

// Runtime executes a set of process bodies to completion.
type Runtime interface {
	// Run starts n processes executing body (distinguished by
	// Proc.ID()) and blocks until all have returned. It returns the
	// first panic raised by a body, if any. Cancellation is cooperative:
	// once ctx is done, blocked receives return ok=false, so bodies that
	// poll the context at their loop heads unwind promptly, and Run still
	// waits for every body to return.
	Run(ctx context.Context, n int, body func(Proc)) error
	// Elapsed returns the makespan of the last Run in seconds: the
	// maximum process clock on the simulator, the wall-clock duration on
	// the goroutine backend.
	Elapsed() float64
	// Stats returns per-process statistics of the last Run.
	Stats() []ProcStats
}

// ProcSnapshot captures the runtime-level state of one simulated process
// for checkpointing: its virtual clock, its persistent speed-skew factor
// and the jitter stream consumed by Compute's noise model. Restoring these
// alongside the search state makes a resumed simulation's event order —
// and therefore its results — bit-identical to the uninterrupted run. The
// goroutine backend has no such state; its procs do not implement
// Snapshotter and a zero ProcSnapshot (Speed 0) means "nothing captured".
type ProcSnapshot struct {
	Clock  float64   `json:"clock"`
	Speed  float64   `json:"speed"`
	Jitter rng.State `json:"jitter"`
}

// Snapshotter is implemented by Procs whose runtime state can be captured
// into a ProcSnapshot (the simulator's processes).
type Snapshotter interface {
	Snapshot() ProcSnapshot
}

// Restorer is implemented by Runtimes that can restore per-process runtime
// state before the next Run (the simulator). Snapshots are indexed by
// process ID; entries with Speed 0 are skipped.
type Restorer interface {
	RestoreProcs(snaps []ProcSnapshot)
}
