package deme

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rng"
	"repro/internal/telemetry"
)

// FaultPlan describes the faults injected into one process. All message
// faults are applied to the process's incoming traffic — the receiver-side
// interception is expressible identically on both backends and lets a plan
// say "drop 30% of the result messages reaching the master" directly.
// Times are true runtime seconds (virtual on Sim, wall on Goroutine),
// unaffected by the plan's own clock skew. The zero value injects nothing.
// Faulty.Run and ParseFaultPlans refuse a plan with a probability outside
// [0, 1], a negative or non-finite time, or a ClockSkew that is not finite
// or is -1 or less.
type FaultPlan struct {
	// DropProb is the probability that an incoming message is silently
	// discarded.
	DropProb float64
	// DupProb is the probability that an incoming message is delivered a
	// second time immediately after the first.
	DupProb float64
	// DelayProb is the probability that an incoming message is held back
	// for a uniform random duration in [0, DelayMax) seconds before
	// becoming receivable.
	DelayProb float64
	DelayMax  float64
	// FaultTags restricts the message faults to these tags; empty applies
	// them to every tag.
	FaultTags []int
	// CrashAt, when positive, silently terminates the process body at the
	// first runtime interaction at or after this time. The underlying
	// backend sees a normal return, so Proc.Alive reports false afterward.
	CrashAt float64
	// StallAt/StallFor, when StallFor is positive, freeze the process for
	// StallFor seconds at its first runtime interaction at or after
	// StallAt (a one-shot stop-the-world pause, e.g. a GC or page fault
	// storm). Modeled via Compute, so it is a no-op on the Goroutine
	// backend, where Compute does not advance time.
	StallAt  float64
	StallFor float64
	// ClockSkew distorts the clock the process observes: Now returns
	// true_time * (1 + ClockSkew) and RecvTimeout deadlines given in the
	// skewed scale are converted back. Compute costs are unaffected.
	ClockSkew float64
	// Seed derives the plan's private fault stream (mixed with the process
	// ID), independent of the machine and search streams.
	Seed uint64
}

// active reports whether the plan injects anything at all.
func (fp *FaultPlan) active() bool {
	return fp.DropProb > 0 || fp.DupProb > 0 || (fp.DelayProb > 0 && fp.DelayMax > 0) ||
		fp.CrashAt > 0 || fp.StallFor > 0 || fp.ClockSkew != 0
}

// check returns an error naming the first value of the plan no run can
// execute.
func (fp *FaultPlan) check() error {
	for _, f := range []struct {
		name string
		v    float64
		ok   bool
	}{
		{"DropProb", fp.DropProb, 0 <= fp.DropProb && fp.DropProb <= 1},
		{"DupProb", fp.DupProb, 0 <= fp.DupProb && fp.DupProb <= 1},
		{"DelayProb", fp.DelayProb, 0 <= fp.DelayProb && fp.DelayProb <= 1},
		{"DelayMax", fp.DelayMax, 0 <= fp.DelayMax && fp.DelayMax <= math.MaxFloat64},
		{"CrashAt", fp.CrashAt, 0 <= fp.CrashAt && fp.CrashAt <= math.MaxFloat64},
		{"StallAt", fp.StallAt, 0 <= fp.StallAt && fp.StallAt <= math.MaxFloat64},
		{"StallFor", fp.StallFor, 0 <= fp.StallFor && fp.StallFor <= math.MaxFloat64},
		{"ClockSkew", fp.ClockSkew, -1 < fp.ClockSkew && fp.ClockSkew <= math.MaxFloat64},
	} {
		if !f.ok {
			return fmt.Errorf("%s %v is out of range", f.name, f.v)
		}
	}
	return nil
}

// checkPlans checks every plan, in process order.
func checkPlans(plans map[int]FaultPlan) error {
	ids := make([]int, 0, len(plans))
	for id := range plans {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		plan := plans[id]
		if err := plan.check(); err != nil {
			target := strconv.Itoa(id)
			if id == WildcardProc {
				target = "*"
			}
			return fmt.Errorf("deme: fault plan %s: %w", target, err)
		}
	}
	return nil
}

// Faulty is a Runtime decorator that injects the faults described by a set
// of per-process FaultPlans into any backend. On Sim the injected faults
// are part of the deterministic event order, so every chaos scenario is a
// reproducible unit test; on Goroutine the same plans exercise real
// concurrency (stall windows excepted, see FaultPlan.StallFor).
type Faulty struct {
	inner Runtime
	plans map[int]FaultPlan
	// Telemetry, when non-nil, counts injected faults. nil disables
	// counting.
	Telemetry *telemetry.Telemetry
}

// WildcardProc is the FaultPlan map key applying to every process that has
// no plan of its own.
const WildcardProc = -1

// NewFaulty wraps a runtime with the given plans. The key WildcardProc
// (-1) provides a default plan for processes without an explicit entry.
func NewFaulty(inner Runtime, plans map[int]FaultPlan) *Faulty {
	return &Faulty{inner: inner, plans: plans}
}

// Elapsed implements Runtime.
func (f *Faulty) Elapsed() float64 { return f.inner.Elapsed() }

// Stats implements Runtime.
func (f *Faulty) Stats() []ProcStats { return f.inner.Stats() }

// crashSignal is the sentinel panic value that implements crash-at-time:
// the Run wrapper recovers it, so the backend observes a normal body
// return and the process simply goes silent.
type crashSignal struct{}

// Run implements Runtime on the wrapped runtime. Processes without an
// active plan run on the raw Proc; the rest are wrapped in a faultyProc.
// A plan out of range (see FaultPlan) fails the run before it starts.
func (f *Faulty) Run(ctx context.Context, n int, body func(Proc)) error {
	if err := checkPlans(f.plans); err != nil {
		return err
	}
	return f.inner.Run(ctx, n, func(p Proc) {
		plan, ok := f.plans[p.ID()]
		if !ok {
			plan, ok = f.plans[WildcardProc]
		}
		if !ok || !plan.active() {
			body(p)
			return
		}
		fp := &faultyProc{
			Proc: p,
			plan: plan,
			tel:  f.Telemetry,
			r:    rng.New(plan.Seed ^ (uint64(p.ID())+1)*0x9e3779b97f4a7c15),
		}
		defer func() {
			if r := recover(); r != nil {
				if _, crashed := r.(crashSignal); !crashed {
					panic(r)
				}
			}
		}()
		body(fp)
	})
}

// pendingMsg is a duplicated or delayed message waiting to be released at
// a later receive.
type pendingMsg struct {
	at float64 // true runtime seconds at which the message becomes receivable
	m  Message
}

// faultyProc intercepts one process's runtime interactions according to
// its FaultPlan. It embeds the raw Proc, overriding the time and message
// methods.
type faultyProc struct {
	Proc
	plan    FaultPlan
	tel     *telemetry.Telemetry
	r       *rng.Rand
	stalled bool
	pending []pendingMsg // sorted by release time
}

// checkpoint serves the one-shot stall window and the crash fault. It is
// called on every runtime interaction, which makes CrashAt exact on Sim: a
// blocked receive never sleeps past the crash time (recvDeadline caps its
// wake time), so the next checkpoint fires at CrashAt sharp.
func (fp *faultyProc) checkpoint() {
	t := fp.Proc.Now()
	if !fp.stalled && fp.plan.StallFor > 0 && t >= fp.plan.StallAt {
		fp.stalled = true
		fp.tel.Inc(telemetry.Stalls)
		fp.Proc.Compute(fp.plan.StallFor)
		t = fp.Proc.Now()
	}
	if fp.plan.CrashAt > 0 && t >= fp.plan.CrashAt {
		fp.tel.Inc(telemetry.Crashes)
		panic(crashSignal{})
	}
}

// Now implements Proc, applying the plan's clock skew.
func (fp *faultyProc) Now() float64 {
	return fp.Proc.Now() * (1 + fp.plan.ClockSkew)
}

// Compute implements Proc.
func (fp *faultyProc) Compute(seconds float64) {
	fp.checkpoint()
	fp.Proc.Compute(seconds)
}

// Send implements Proc. Outgoing traffic is not faulted (message faults
// are receiver-side), but sending is still a crash/stall checkpoint.
func (fp *faultyProc) Send(to, tag int, data any, bytes int) {
	fp.checkpoint()
	fp.Proc.Send(to, tag, data, bytes)
}

// faulted reports whether the message faults apply to this tag.
func (fp *faultyProc) faulted(tag int) bool {
	if len(fp.plan.FaultTags) == 0 {
		return true
	}
	for _, t := range fp.plan.FaultTags {
		if t == tag {
			return true
		}
	}
	return false
}

// filter runs one delivered message through the drop/duplicate/delay
// faults. It returns false when the message must not be handed to the body
// now (dropped, or parked in pending for a later release).
func (fp *faultyProc) filter(m Message) bool {
	if !fp.faulted(m.Tag) {
		return true
	}
	if fp.plan.DropProb > 0 && fp.r.Float64() < fp.plan.DropProb {
		fp.tel.Inc(telemetry.MsgsDropped)
		return false
	}
	if fp.plan.DupProb > 0 && fp.r.Float64() < fp.plan.DupProb {
		fp.tel.Inc(telemetry.MsgsDuplicated)
		fp.enqueue(fp.Proc.Now(), m)
	}
	if fp.plan.DelayProb > 0 && fp.plan.DelayMax > 0 && fp.r.Float64() < fp.plan.DelayProb {
		fp.tel.Inc(telemetry.MsgsDelayed)
		fp.enqueue(fp.Proc.Now()+fp.plan.DelayMax*fp.r.Float64(), m)
		return false
	}
	return true
}

// enqueue parks a message for release at time at, keeping pending sorted.
func (fp *faultyProc) enqueue(at float64, m Message) {
	i := sort.Search(len(fp.pending), func(i int) bool { return fp.pending[i].at > at })
	fp.pending = append(fp.pending, pendingMsg{})
	copy(fp.pending[i+1:], fp.pending[i:])
	fp.pending[i] = pendingMsg{at: at, m: m}
}

// popPending releases the earliest parked message whose time has come.
func (fp *faultyProc) popPending() (Message, bool) {
	if len(fp.pending) == 0 || fp.pending[0].at > fp.Proc.Now() {
		return Message{}, false
	}
	m := fp.pending[0].m
	fp.pending = fp.pending[1:]
	return m, true
}

// TryRecv implements Proc.
func (fp *faultyProc) TryRecv() (Message, bool) {
	fp.checkpoint()
	if m, ok := fp.popPending(); ok {
		return m, true
	}
	for {
		m, ok := fp.Proc.TryRecv()
		if !ok {
			return Message{}, false
		}
		if fp.filter(m) {
			return m, true
		}
		// Dropped or delayed; poll the next queued message.
	}
}

// RecvTimeout implements Proc. seconds is expressed on the process's
// (possibly skewed) clock and converted to true runtime seconds.
func (fp *faultyProc) RecvTimeout(seconds float64) (Message, bool) {
	seconds = recvSeconds(seconds)
	if fp.plan.ClockSkew != 0 {
		seconds /= 1 + fp.plan.ClockSkew
	}
	return fp.recvDeadline(fp.Proc.Now() + seconds)
}

// recvDeadline blocks for a deliverable message until the absolute
// deadline (true runtime seconds). Inner waits are capped at the next
// pending release and the crash time, so parked messages surface on
// schedule and a crash fires exactly at CrashAt even while blocked.
func (fp *faultyProc) recvDeadline(deadline float64) (Message, bool) {
	for {
		fp.checkpoint()
		if m, ok := fp.popPending(); ok {
			return m, true
		}
		now := fp.Proc.Now()
		if deadline <= now {
			return Message{}, false
		}
		wake := deadline
		if len(fp.pending) > 0 && fp.pending[0].at < wake {
			wake = fp.pending[0].at
		}
		if fp.plan.CrashAt > now && fp.plan.CrashAt < wake {
			wake = fp.plan.CrashAt
		}
		m, ok := fp.Proc.RecvTimeout(wake - now)
		if !ok {
			// The inner receive ended before its local deadline only on
			// cancellation or global completion — report that through.
			// Otherwise the deadline was a wake point we installed
			// (pending release, crash time) or the real one; loop to
			// re-evaluate at the top.
			if fp.Proc.Now() < wake-1e-9 {
				return Message{}, false
			}
			continue
		}
		if fp.filter(m) {
			return m, true
		}
	}
}

// ParseFaultPlans parses the -faults command-line syntax into a plan map.
//
// The spec is a semicolon-separated list of entries, each
// "target:fault[,fault...]". target is a process ID or "*" (the wildcard
// plan). Faults:
//
//	crash@T      crash at T seconds
//	stall@T+D    stall for D seconds at T
//	drop=P       drop incoming messages with probability P
//	dup=P        duplicate incoming messages with probability P
//	delay=P/D    delay incoming messages with probability P by up to D seconds
//	skew=F       clock skew factor (Now reads true_time*(1+F))
//	tags=N+N     restrict message faults to these numeric tags
//	seed=N       fault-stream seed
//
// Example: "1:crash@5;0:drop=0.2,tags=2;*:skew=0.1". A value out of range
// (see FaultPlan) is refused.
func ParseFaultPlans(spec string) (map[int]FaultPlan, error) {
	plans := make(map[int]FaultPlan)
	for _, entry := range strings.Split(spec, ";") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		target, faults, found := strings.Cut(entry, ":")
		if !found {
			return nil, fmt.Errorf("deme: fault entry %q lacks a 'target:' prefix", entry)
		}
		id := WildcardProc
		if t := strings.TrimSpace(target); t != "*" {
			v, err := strconv.Atoi(t)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("deme: fault target %q is not a process ID or '*'", target)
			}
			id = v
		}
		plan := plans[id]
		for _, f := range strings.Split(faults, ",") {
			if err := parseFault(&plan, strings.TrimSpace(f)); err != nil {
				return nil, err
			}
		}
		plans[id] = plan
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("deme: empty fault spec")
	}
	if err := checkPlans(plans); err != nil {
		return nil, err
	}
	return plans, nil
}

// parseFault folds one fault clause into the plan.
func parseFault(plan *FaultPlan, f string) error {
	key, val, found := strings.Cut(f, "@")
	if !found {
		key, val, found = strings.Cut(f, "=")
	}
	if !found {
		return fmt.Errorf("deme: fault clause %q needs 'name@...' or 'name=...'", f)
	}
	num := func(s string) (float64, error) {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("deme: fault clause %q: bad number %q", f, s)
		}
		return v, nil
	}
	var err error
	switch key {
	case "crash":
		plan.CrashAt, err = num(val)
	case "stall":
		at, dur, ok := strings.Cut(val, "+")
		if !ok {
			return fmt.Errorf("deme: stall clause %q needs 'stall@T+D'", f)
		}
		if plan.StallAt, err = num(at); err == nil {
			plan.StallFor, err = num(dur)
		}
	case "drop":
		plan.DropProb, err = num(val)
	case "dup":
		plan.DupProb, err = num(val)
	case "delay":
		pr, d, ok := strings.Cut(val, "/")
		if !ok {
			return fmt.Errorf("deme: delay clause %q needs 'delay=P/D'", f)
		}
		if plan.DelayProb, err = num(pr); err == nil {
			plan.DelayMax, err = num(d)
		}
	case "skew":
		plan.ClockSkew, err = num(val)
	case "seed":
		v, perr := strconv.ParseUint(val, 10, 64)
		if perr != nil {
			return fmt.Errorf("deme: fault clause %q: bad seed %q", f, val)
		}
		plan.Seed = v
	case "tags":
		for _, t := range strings.Split(val, "+") {
			v, perr := strconv.Atoi(strings.TrimSpace(t))
			if perr != nil {
				return fmt.Errorf("deme: fault clause %q: bad tag %q", f, t)
			}
			plan.FaultTags = append(plan.FaultTags, v)
		}
	default:
		return fmt.Errorf("deme: unknown fault %q in clause %q", key, f)
	}
	return err
}
