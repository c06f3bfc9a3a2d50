package deme

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"
)

// Goroutine is the real-concurrency backend: every process is a goroutine,
// messages travel through unbounded mailboxes, Now is the wall clock and
// Compute is a no-op (the surrounding real work takes real time). Use it
// on actual multicore hosts; use Sim for reproducible timing studies.
type Goroutine struct {
	elapsed float64
	stats   []ProcStats
}

// NewGoroutine returns a goroutine-backed runtime.
func NewGoroutine() *Goroutine { return &Goroutine{} }

// Elapsed implements Runtime.
func (g *Goroutine) Elapsed() float64 { return g.elapsed }

type goProc struct {
	id     int
	n      int
	start  time.Time
	run    *goRun
	queue  []Message
	notify chan struct{} // capacity 1; pinged on push and on run-state changes
	stat   ProcStats
	done   bool // body returned; guarded by run.mu
}

// goRun holds the shared state of one Run. mu guards queue contents and
// the live counter.
type goRun struct {
	mu    sync.Mutex
	procs []*goProc
	live  int             // processes that have not returned yet
	ctx   context.Context // done releases receivers
}

// pingAll wakes every process so it can re-evaluate run state.
func (r *goRun) pingAll() {
	for _, q := range r.procs {
		q.ping()
	}
}

func (p *goProc) ping() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// ID implements Proc.
func (p *goProc) ID() int { return p.id }

// P implements Proc.
func (p *goProc) P() int { return p.n }

// Now implements Proc.
func (p *goProc) Now() float64 { return time.Since(p.start).Seconds() }

// Compute implements Proc. Real work takes real time; nothing to model.
func (p *goProc) Compute(float64) {}

// Send implements Proc.
func (p *goProc) Send(to, tag int, data any, bytes int) {
	r := p.run
	target := r.procs[to]
	r.mu.Lock()
	target.queue = append(target.queue, Message{From: p.id, Tag: tag, Data: data, Bytes: bytes})
	p.stat.MsgsSent++
	p.stat.BytesSent += bytes
	r.mu.Unlock()
	target.ping()
}

// TryRecv implements Proc.
func (p *goProc) TryRecv() (Message, bool) {
	r := p.run
	r.mu.Lock()
	defer r.mu.Unlock()
	return p.popLocked()
}

func (p *goProc) popLocked() (Message, bool) {
	if len(p.queue) == 0 {
		return Message{}, false
	}
	m := p.queue[0]
	p.queue = p.queue[1:]
	p.stat.MsgsReceived++
	return m, true
}

// Alive implements Proc.
func (p *goProc) Alive(id int) bool {
	r := p.run
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.procs[id].done
}

// RecvTimeout implements Proc: it blocks until a message arrives, the
// run's context is done, no other process is left to send, or the timer
// fires. A timeout past the largest time.Duration (about 292 years)
// waits that long.
func (p *goProc) RecvTimeout(seconds float64) (Message, bool) {
	d := time.Duration(math.MaxInt64)
	if ns := recvSeconds(seconds) * float64(time.Second); ns < float64(d) {
		d = time.Duration(ns)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	r := p.run
	blockStart := time.Now()
	defer func() {
		d := time.Since(blockStart).Seconds()
		r.mu.Lock()
		p.stat.Blocked += d
		r.mu.Unlock()
	}()
	for {
		r.mu.Lock()
		if m, ok := p.popLocked(); ok {
			r.mu.Unlock()
			return m, true
		}
		if r.ctx.Err() != nil || r.live <= 1 {
			// The run's context is done, or only this process is left
			// and nothing can arrive: release the receiver so its body
			// can observe that at its loop head instead of sleeping out
			// the timeout.
			r.mu.Unlock()
			return Message{}, false
		}
		r.mu.Unlock()
		select {
		case <-p.notify:
		case <-t.C:
			// Timed out: one final drain to not lose a racing push.
			r.mu.Lock()
			m, ok := p.popLocked()
			r.mu.Unlock()
			return m, ok
		}
	}
}

// Run implements Runtime: when ctx is done every parked receive returns
// ok=false, so bodies that poll the context unwind within one loop turn.
// The call still blocks until all bodies have returned.
func (g *Goroutine) Run(ctx context.Context, n int, body func(Proc)) error {
	if n < 1 {
		return fmt.Errorf("deme: Run needs at least one process, got %d", n)
	}
	run := &goRun{procs: make([]*goProc, n), live: n, ctx: ctx}
	start := time.Now()
	for i := range run.procs {
		run.procs[i] = &goProc{id: i, n: n, start: start, run: run, notify: make(chan struct{}, 1)}
	}
	// Wake every parked receiver the moment the context is cancelled;
	// the watcher exits with the run.
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-ctx.Done():
			run.pingAll()
		case <-watcherDone:
		}
	}()
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var firstPanic error
	for _, p := range run.procs {
		wg.Add(1)
		go func(p *goProc) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					panicMu.Lock()
					if firstPanic == nil {
						firstPanic = fmt.Errorf("deme: process %d panicked: %v", p.id, rec)
					}
					panicMu.Unlock()
				}
				run.mu.Lock()
				run.live--
				p.done = true
				run.mu.Unlock()
				// Wake every blocked receiver so it can observe
				// the new live count.
				run.pingAll()
			}()
			body(p)
		}(p)
	}
	wg.Wait()
	g.elapsed = time.Since(start).Seconds()
	g.stats = make([]ProcStats, n)
	for i, p := range run.procs {
		g.stats[i] = p.stat
		g.stats[i].End = g.elapsed
	}
	return firstPanic
}
