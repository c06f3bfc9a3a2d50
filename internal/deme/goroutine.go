package deme

import (
	"context"
	"fmt"
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
// the live/blocked counters so that deadlock detection is exact.
type goRun struct {
	mu      sync.Mutex
	procs   []*goProc
	live    int             // processes that have not returned yet
	blocked int             // processes parked in an untimed Recv
	ctx     context.Context // done releases receivers
}

// cancelled reports whether the run's context is done.
func (r *goRun) cancelled() bool {
	return r.ctx.Err() != nil
}

// anyQueuedLocked reports whether any mailbox holds an undelivered message.
// Callers must hold mu.
func (r *goRun) anyQueuedLocked() bool {
	for _, q := range r.procs {
		if len(q.queue) > 0 {
			return true
		}
	}
	return false
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

// Recv implements Proc.
func (p *goProc) Recv() (Message, bool) { return p.recv(nil) }

// RecvTimeout implements Proc.
func (p *goProc) RecvTimeout(seconds float64) (Message, bool) {
	if seconds < 0 {
		seconds = 0
	}
	t := time.NewTimer(time.Duration(seconds * float64(time.Second)))
	defer t.Stop()
	return p.recv(t.C)
}

// recv blocks until a message, global completion, or — for untimed
// receives — a detected global deadlock: when every live process is parked
// in an untimed Recv no message can ever arrive, so the detecting process
// releases itself with ok=false (mirroring the simulator's release rule; a
// released process may send again, re-activating the others).
func (p *goProc) recv(timeout <-chan time.Time) (Message, bool) {
	r := p.run
	untimed := timeout == nil
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
		if r.cancelled() {
			// The run's context is done: release the receiver so its
			// body can observe the cancellation at its loop head
			// instead of sleeping out the timeout.
			r.mu.Unlock()
			return Message{}, false
		}
		if r.live <= 1 {
			// Only this process is left; nothing can arrive.
			r.mu.Unlock()
			return Message{}, false
		}
		if untimed {
			r.blocked++
			// Deadlock only if, additionally, no mailbox anywhere
			// holds a message: a queued message means its owner
			// has been pinged and will wake up and act.
			if r.blocked >= r.live && !r.anyQueuedLocked() {
				r.blocked--
				r.mu.Unlock()
				r.pingAll()
				return Message{}, false
			}
		}
		r.mu.Unlock()
		parked := true
		select {
		case <-p.notify:
		case <-timeout:
			parked = false
		}
		if untimed {
			r.mu.Lock()
			r.blocked--
			r.mu.Unlock()
		}
		if !parked {
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
