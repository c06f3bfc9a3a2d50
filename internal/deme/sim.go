package deme

import (
	"container/heap"
	"context"
	"fmt"

	"repro/internal/rng"
)

// Sim is the deterministic discrete-event backend. Process bodies run as
// coroutines: exactly one goroutine — the scheduler or a single process —
// executes at any moment, and the scheduler always advances the process
// with the globally smallest virtual time, so results are independent of
// host scheduling and fully reproducible.
type Sim struct {
	machine Machine
	elapsed float64

	// Per-Run state (one Run at a time). These live on Sim rather than
	// in Run's frame so that simProc.Send can reach sibling mailboxes.
	procs []*simProc
	yield chan *simProc
	seq   uint64
	stats []ProcStats

	// restore holds per-process runtime snapshots to apply at the next
	// Run; consumed (one-shot) so later Runs start fresh.
	restore []ProcSnapshot
}

// NewSim returns a simulator of the given machine.
func NewSim(m Machine) *Sim { return &Sim{machine: m} }

// Elapsed implements Runtime.
func (s *Sim) Elapsed() float64 { return s.elapsed }

type simState int

const (
	stReady   simState = iota // runnable at its clock
	stTryRecv                 // runnable; scheduler must answer a poll first
	stBlocked                 // waiting for mail or deadline
	stDone                    // body returned
)

// mail is a queued message with its delivery time.
type mail struct {
	arrival float64
	seq     uint64 // global sequence number; deterministic tie-break
	msg     Message
}

type mailHeap []mail

func (h mailHeap) Len() int { return len(h) }
func (h mailHeap) Less(i, j int) bool {
	if h[i].arrival != h[j].arrival {
		return h[i].arrival < h[j].arrival
	}
	return h[i].seq < h[j].seq
}
func (h mailHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mailHeap) Push(x any)   { *h = append(*h, x.(mail)) }
func (h *mailHeap) Pop() any     { old := *h; n := len(old); m := old[n-1]; *h = old[:n-1]; return m }

type simProc struct {
	sim    *Sim
	id     int
	n      int
	clock  float64
	jitter *rng.Rand

	speed float64 // persistent slowdown factor, >= 1
	stat  ProcStats

	state    simState
	deadline float64 // absolute wake deadline while blocked
	mailbox  mailHeap

	resume chan struct{}

	// reply slot filled by the scheduler before resuming a receive.
	replyMsg Message
	replyOK  bool

	panicVal any
}

// ID implements Proc.
func (p *simProc) ID() int { return p.id }

// P implements Proc.
func (p *simProc) P() int { return p.n }

// Now implements Proc.
func (p *simProc) Now() float64 { return p.clock }

// Compute implements Proc: advance the virtual clock by the cost scaled by
// the machine's noise model (persistent skew, uniform jitter, transient
// stall spikes) and yield so lower-clock processes can run.
func (p *simProc) Compute(seconds float64) {
	if seconds < 0 {
		panic("deme: negative compute cost")
	}
	m := &p.sim.machine
	seconds *= p.speed
	if m.Jitter > 0 {
		seconds *= 1 + m.Jitter*(2*p.jitter.Float64()-1)
	}
	if m.SpikeProb > 0 && p.jitter.Float64() < m.SpikeProb {
		seconds *= 1 + (m.SpikeMax-1)*p.jitter.Float64()
	}
	p.clock += seconds
	p.stat.Compute += seconds
	p.state = stReady
	p.yield()
}

// Send implements Proc. The sender is charged the per-message overhead and
// the bandwidth share; delivery happens Latency later. Send does not yield:
// enqueuing mail cannot violate causality because arrival times never
// precede the sender's clock.
func (p *simProc) Send(to, tag int, data any, bytes int) {
	m := &p.sim.machine
	cost := m.SendOverhead
	if m.Bandwidth > 0 && bytes > 0 {
		cost += float64(bytes) / m.Bandwidth
	}
	p.clock += cost
	p.stat.MsgsSent++
	p.stat.BytesSent += bytes
	target := p.sim.procs[to]
	p.sim.seq++
	heap.Push(&target.mailbox, mail{
		arrival: p.clock + m.Latency,
		seq:     p.sim.seq,
		msg:     Message{From: p.id, Tag: tag, Data: data, Bytes: bytes},
	})
}

// TryRecv implements Proc.
func (p *simProc) TryRecv() (Message, bool) {
	p.state = stTryRecv
	p.yield()
	return p.replyMsg, p.replyOK
}

// RecvTimeout implements Proc.
func (p *simProc) RecvTimeout(seconds float64) (Message, bool) {
	seconds = recvSeconds(seconds)
	start := p.clock
	p.state = stBlocked
	p.deadline = p.clock + seconds
	p.yield()
	p.stat.Blocked += p.clock - start
	return p.replyMsg, p.replyOK
}

// Alive implements Proc. Exactly one goroutine of a Sim runs at a time, so
// reading a sibling's state is race-free.
func (p *simProc) Alive(id int) bool { return p.sim.procs[id].state != stDone }

// Snapshot implements Snapshotter: the process's clock, speed skew and
// jitter-stream state, captured at a quiescent point chosen by the body.
func (p *simProc) Snapshot() ProcSnapshot {
	return ProcSnapshot{Clock: p.clock, Speed: p.speed, Jitter: p.jitter.State()}
}

// RestoreProcs implements Restorer: the next Run's processes start from
// the given snapshots (indexed by ID) instead of fresh clocks and jitter
// streams. Entries with Speed 0 — processes captured on a backend without
// runtime state — are skipped.
func (s *Sim) RestoreProcs(snaps []ProcSnapshot) {
	s.restore = snaps
}

// yield hands control to the scheduler and waits to be resumed.
func (p *simProc) yield() {
	p.sim.yield <- p
	<-p.resume
}

// wake returns the virtual time at which a blocked process can proceed:
// the earliest deliverable mail or the deadline, never before its clock.
func (p *simProc) wake() float64 {
	w := p.deadline
	if len(p.mailbox) > 0 && p.mailbox[0].arrival < w {
		w = p.mailbox[0].arrival
	}
	if w < p.clock {
		w = p.clock
	}
	return w
}

// Run implements Runtime. A cancelled context releases every blocked
// receive with ok=false at its current virtual clock (instead of sleeping
// to its deadline), so bodies that poll the context unwind within one
// loop turn. An uncancelled context leaves the event order — and hence
// the simulation's determinism — completely untouched.
func (s *Sim) Run(ctx context.Context, n int, body func(Proc)) error {
	if n < 1 {
		return fmt.Errorf("deme: Run needs at least one process, got %d", n)
	}
	s.procs = make([]*simProc, n)
	s.yield = make(chan *simProc)
	s.seq = 0
	seeder := rng.New(s.machine.Seed)
	for i := range s.procs {
		jr := seeder.Split()
		speed := 1.0
		if s.machine.Skew > 0 {
			u := jr.Float64()
			speed = 1 + s.machine.Skew*u*u*u
		}
		s.procs[i] = &simProc{
			sim:    s,
			id:     i,
			n:      n,
			jitter: jr,
			speed:  speed,
			state:  stReady,
			resume: make(chan struct{}),
		}
	}
	if s.restore != nil {
		for i, p := range s.procs {
			if i >= len(s.restore) || s.restore[i].Speed <= 0 {
				continue
			}
			sn := s.restore[i]
			p.clock = sn.Clock
			p.speed = sn.Speed
			p.jitter.SetState(sn.Jitter)
		}
		s.restore = nil
	}
	for _, p := range s.procs {
		go func(p *simProc) {
			<-p.resume
			defer func() {
				if r := recover(); r != nil {
					p.panicVal = r
				}
				p.state = stDone
				s.yield <- p
			}()
			body(p)
		}(p)
	}

	running := n
	var firstPanic error
	cancelled := false
	events := 0
	for running > 0 {
		// Poll the context every few events only: Err takes a lock, and
		// compute-heavy simulations yield millions of times.
		if !cancelled && events%64 == 0 {
			cancelled = ctx.Err() != nil
		}
		events++
		p := s.pickNext()
		switch {
		case p.state == stBlocked && cancelled:
			// Cancelled: release the receive at the process's current
			// clock instead of sleeping to its mail or deadline, so
			// the body can observe the cancellation at its loop head.
			p.replyMsg, p.replyOK = Message{}, false
		case p.state == stBlocked:
			p.clock = p.wake()
			p.replyMsg, p.replyOK = s.deliver(p)
		case p.state == stTryRecv:
			p.replyMsg, p.replyOK = s.deliver(p)
		}
		p.state = stReady
		p.resume <- struct{}{}
		q := <-s.yield
		if q.state == stDone {
			running--
			if q.panicVal != nil && firstPanic == nil {
				firstPanic = fmt.Errorf("deme: process %d panicked: %v", q.id, q.panicVal)
			}
		}
	}
	s.elapsed = 0
	s.stats = make([]ProcStats, len(s.procs))
	for i, p := range s.procs {
		if p.clock > s.elapsed {
			s.elapsed = p.clock
		}
		p.stat.End = p.clock
		s.stats[i] = p.stat
	}
	s.procs, s.yield = nil, nil
	return firstPanic
}

// pickNext selects the live process with the smallest next event time —
// ready processes keyed by their clock, blocked ones by their wake time —
// the lowest ID first on a tie. Every receive has a finite deadline, so
// some live process always has a next event.
func (s *Sim) pickNext() *simProc {
	var best *simProc
	var bestKey float64
	for _, p := range s.procs {
		var key float64
		switch p.state {
		case stDone:
			continue
		case stReady, stTryRecv:
			key = p.clock
		case stBlocked:
			key = p.wake()
		}
		if best == nil || key < bestKey {
			best, bestKey = p, key
		}
	}
	return best
}

// deliver pops the earliest deliverable message for p, charging the
// receive overhead. A blocked caller has already been advanced to its wake
// time, so an empty result there means the deadline passed (timeout).
func (s *Sim) deliver(p *simProc) (Message, bool) {
	if len(p.mailbox) > 0 && p.mailbox[0].arrival <= p.clock {
		m := heap.Pop(&p.mailbox).(mail)
		p.clock += s.machine.RecvOverhead
		p.stat.MsgsReceived++
		return m.msg, true
	}
	return Message{}, false
}
