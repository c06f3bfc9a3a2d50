// Package trace is a zero-dependency span recorder for request-scoped
// causality: a Trace owns a bounded log of completed spans, spans carry a
// parent link, wall-clock start/end and a handful of attributes, and the
// whole trace exports as OTLP-compatible JSON (otlp.go) so any external
// collector can ingest runs unmodified.
//
// Like internal/telemetry, the package follows the nil-receiver
// fully-disabled pattern: every method on a nil *Trace or nil *Span is a
// single branch and allocates nothing, so call sites never guard and the
// off path stays zero-alloc (gated by AllocsPerRun in trace_test.go).
package trace

import (
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"

	"repro/internal/seqlog"
)

// TraceID is the 16-byte W3C trace identifier.
type TraceID [16]byte

// SpanID is the 8-byte W3C span identifier.
type SpanID [8]byte

// String renders the ID as 32 lowercase hex digits.
func (id TraceID) String() string { return hex.EncodeToString(id[:]) }

// String renders the ID as 16 lowercase hex digits.
func (id SpanID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is all zeroes (the W3C invalid value).
func (id TraceID) IsZero() bool { return id == TraceID{} }

// IsZero reports whether the ID is all zeroes.
func (id SpanID) IsZero() bool { return id == SpanID{} }

// Attr is one span attribute. Either Value (string) or Num (int64) is
// meaningful, selected by IsNum — a closed sum kept flat so span recording
// never boxes through interface{}.
type Attr struct {
	Key   string
	Value string
	Num   int64
	IsNum bool
}

// SpanData is one completed span as stored in the trace ring.
type SpanData struct {
	ID     SpanID
	Parent SpanID // zero for a trace-root span with no remote parent
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  []Attr
}

// Span is one in-flight operation. All methods are nil-safe; End is
// idempotent so shared spans (e.g. a queue span ended by both the start
// and the terminal path) record exactly once.
type Span struct {
	tr     *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	attrs  []Attr
	ended  atomic.Bool
}

// DefaultRingCap bounds the completed-span ring when New is given a
// non-positive capacity.
const DefaultRingCap = 4096

// Trace is one trace: an ID, the remote parent span (if the trace was
// continued from a traceparent header), and a bounded log of completed
// spans that keeps the newest and grows on demand up to its capacity, so
// a trace that records few spans holds few.
type Trace struct {
	id     TraceID
	remote SpanID // parent span from an incoming traceparent, if any
	flags  byte

	seed uint64 // random base XORed into the span-ID counter
	next atomic.Uint64

	spans *seqlog.Log[SpanData]
}

// New returns a fresh trace with a random ID and a completed-span ring of
// the given capacity (DefaultRingCap when cap <= 0).
func New(ringCap int) *Trace {
	var b [24]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to a
		// fixed-but-valid ID rather than panicking in an observability layer.
		copy(b[:], "tsmo-trace-fallback-seed")
	}
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	t := &Trace{flags: 0x01, seed: binary.LittleEndian.Uint64(b[16:]), spans: seqlog.New[SpanData](ringCap)}
	copy(t.id[:], b[:16])
	return t
}

// NewFrom continues the trace described by a W3C traceparent header: the
// trace keeps the remote trace ID and records the remote span as the
// parent of its root spans. A malformed header degrades to New — the
// caller still gets a working trace, just not the remote correlation.
func NewFrom(traceparent string, ringCap int) *Trace {
	t := New(ringCap)
	if tid, sid, flags, ok := ParseTraceparent(traceparent); ok {
		t.id = tid
		t.remote = sid
		t.flags = flags
	}
	return t
}

// ID returns the trace ID (zero value on a nil trace).
func (t *Trace) ID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.id
}

// RemoteParent returns the span ID carried by the traceparent header the
// trace was built from, or the zero ID.
func (t *Trace) RemoteParent() SpanID {
	if t == nil {
		return SpanID{}
	}
	return t.remote
}

// spanID mints a process-unique span ID: a per-trace random base XORed
// with a counter, so IDs never collide within a trace and are not
// predictable across traces.
func (t *Trace) spanID() SpanID {
	var id SpanID
	binary.LittleEndian.PutUint64(id[:], t.seed^(t.next.Add(1)*0x9e3779b97f4a7c15))
	if id.IsZero() {
		id[0] = 1
	}
	return id
}

// Start begins a span. A nil parent roots the span at the trace's remote
// parent (or as a trace root when there is none). Returns nil — and does
// nothing — on a nil trace.
func (t *Trace) Start(parent *Span, name string) *Span {
	return t.StartAt(parent, name, time.Now())
}

// StartAt is Start with an explicit start time, for spans whose real
// beginning predates instrumentation reach (e.g. HTTP handler entry).
func (t *Trace) StartAt(parent *Span, name string, at time.Time) *Span {
	if t == nil {
		return nil
	}
	s := &Span{tr: t, id: t.spanID(), name: name, start: at}
	if parent != nil {
		s.parent = parent.id
	} else {
		s.parent = t.remote
	}
	return s
}

// SetAttr attaches a string attribute; chainable, nil-safe.
func (s *Span) SetAttr(key, value string) *Span {
	if s == nil || s.ended.Load() {
		return s
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	return s
}

// SetInt attaches an integer attribute; chainable, nil-safe.
func (s *Span) SetInt(key string, value int64) *Span {
	if s == nil || s.ended.Load() {
		return s
	}
	s.attrs = append(s.attrs, Attr{Key: key, Num: value, IsNum: true})
	return s
}

// ID returns the span's ID (zero on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// End completes the span and deposits it in the trace ring. Idempotent:
// only the first End records; later calls are no-ops, so a span may be
// ended defensively from more than one path.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt is End with an explicit end time.
func (s *Span) EndAt(at time.Time) {
	if s == nil || s.ended.Swap(true) {
		return
	}
	// A full log drops its oldest span. That loses leaf phase spans before
	// lifecycle spans, because the long-lived job/run spans end last and so
	// land last.
	s.tr.spans.Append(SpanData{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Start:  s.start,
		End:    at,
		Attrs:  s.attrs,
	})
}

// Snapshot returns the completed spans in completion order plus the count
// of spans dropped by ring overflow. Nil-safe (returns nil, 0).
func (t *Trace) Snapshot() ([]SpanData, int64) {
	if t == nil {
		return nil, 0
	}
	spans, dropped := t.spans.Snapshot()
	return spans, int64(dropped)
}
