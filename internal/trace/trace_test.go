package trace

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycle(t *testing.T) {
	tr := New(16)
	root := tr.Start(nil, "job").SetAttr("instance", "R1_4_1").SetInt("seed", 42)
	child := tr.Start(root, "run")
	child.End()
	root.End()

	spans, dropped := tr.Snapshot()
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Completion order: child first, root last.
	if spans[0].Name != "run" || spans[1].Name != "job" {
		t.Fatalf("order = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("child parent %s != root id %s", spans[0].Parent, spans[1].ID)
	}
	if !spans[1].Parent.IsZero() {
		t.Errorf("root has a parent %s, want zero", spans[1].Parent)
	}
	if len(spans[1].Attrs) != 2 {
		t.Errorf("root attrs = %v, want 2", spans[1].Attrs)
	}
	if spans[0].ID == spans[1].ID {
		t.Error("span IDs collide")
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New(8)
	s := tr.Start(nil, "queue")
	s.End()
	s.End()
	s.End()
	spans, _ := tr.Snapshot()
	if len(spans) != 1 {
		t.Fatalf("double End recorded %d spans, want 1", len(spans))
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Start(nil, string(rune('a'+i))).End()
	}
	spans, dropped := tr.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d, want 4", len(spans))
	}
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}
	// Oldest-first eviction: the survivors are the last four completed.
	if spans[0].Name != "g" || spans[3].Name != "j" {
		t.Errorf("survivors = %q..%q, want g..j", spans[0].Name, spans[3].Name)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Trace
	s := tr.Start(nil, "x")
	if s != nil {
		t.Fatal("nil trace produced a span")
	}
	s.SetAttr("k", "v").SetInt("n", 1).End()
	if spans, dropped := tr.Snapshot(); spans != nil || dropped != 0 {
		t.Error("nil trace snapshot not empty")
	}
	if tr.Traceparent(nil) != "" {
		t.Error("nil trace rendered a traceparent")
	}
	if !tr.ID().IsZero() || !s.ID().IsZero() {
		t.Error("nil receivers returned nonzero IDs")
	}
}

// TestDisabledZeroAlloc is the AllocsPerRun gate on the off path: with a
// nil trace every instrumentation call must allocate nothing, so wiring
// spans through the searcher hot loop costs idle code one branch.
func TestDisabledZeroAlloc(t *testing.T) {
	var tr *Trace
	var parent *Span
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.Start(parent, "sweep")
		s.SetInt("iter", 7)
		s.SetAttr("op", "2opt")
		s.End()
	})
	if allocs != 0 {
		t.Errorf("disabled trace path allocates %.1f/op, want 0", allocs)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	const hdr = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tid, sid, flags, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatal("valid header rejected")
	}
	if tid.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %s", tid)
	}
	if sid.String() != "00f067aa0ba902b7" {
		t.Errorf("span id = %s", sid)
	}
	if flags != 1 {
		t.Errorf("flags = %d", flags)
	}

	tr := NewFrom(hdr, 8)
	if tr.ID() != tid {
		t.Errorf("NewFrom trace id = %s, want %s", tr.ID(), tid)
	}
	if tr.RemoteParent() != sid {
		t.Errorf("remote parent = %s, want %s", tr.RemoteParent(), sid)
	}
	// A root span started under a remote parent inherits it.
	root := tr.Start(nil, "job")
	root.End()
	spans, _ := tr.Snapshot()
	if spans[0].Parent != sid {
		t.Errorf("root parent = %s, want remote %s", spans[0].Parent, sid)
	}
	// Injection: the re-rendered header for the root span parses back.
	out := tr.Traceparent(root)
	tid2, sid2, _, ok := ParseTraceparent(out)
	if !ok || tid2 != tid || sid2 != root.ID() {
		t.Errorf("injected header %q did not round-trip", out)
	}
}

// malformedTraceparents are headers ParseTraceparent must reject; they
// also seed FuzzParseTraceparent.
var malformedTraceparents = []string{
	"",
	"00-short-00f067aa0ba902b7-01",
	"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // wrong version
	"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero span id
	"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // bad hex
	"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // bad separator
	"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01", // uppercase hex
}

func TestParseTraceparentRejects(t *testing.T) {
	for _, h := range malformedTraceparents {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("accepted malformed header %q", h)
		}
	}
	// NewFrom degrades to a fresh trace on garbage.
	tr := NewFrom("garbage", 8)
	if tr.ID().IsZero() {
		t.Error("NewFrom(garbage) produced a zero trace ID")
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Start(nil, "shard").SetInt("i", int64(i)).End()
				if i%50 == 0 {
					tr.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	spans, dropped := tr.Snapshot()
	if len(spans) != 64 {
		t.Errorf("ring holds %d, want 64", len(spans))
	}
	if int(dropped)+len(spans) != 8*200 {
		t.Errorf("dropped %d + kept %d != recorded %d", dropped, len(spans), 8*200)
	}
}

func TestOTLPExport(t *testing.T) {
	tr := NewFrom("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", 16)
	at := time.Unix(1700000000, 0)
	root := tr.StartAt(nil, "job", at).SetAttr("state", "done").SetInt("seed", 7)
	root.EndAt(at.Add(2 * time.Second))

	b, err := Export("tsmod", tr)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	s := string(b)
	for _, want := range []string{
		`"resourceSpans"`, `"scopeSpans"`, `"service.name"`,
		`"traceId":"4bf92f3577b34da6a3ce929d0e0e4736"`,
		`"parentSpanId":"00f067aa0ba902b7"`,
		`"name":"job"`, `"kind":1,`,
		`"startTimeUnixNano":"1700000000000000000"`,
		`"endTimeUnixNano":"1700000002000000000"`,
		`"intValue":"7"`, `"stringValue":"done"`,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("export missing %s:\n%s", want, s)
		}
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := New(8)
	sp := tr.Start(nil, "run")
	ctx := NewContext(context.Background(), tr, sp)
	gotTr, gotSp := FromContext(ctx)
	if gotTr != tr || gotSp != sp {
		t.Error("context did not round-trip trace and span")
	}
	if tr2, sp2 := FromContext(context.Background()); tr2 != nil || sp2 != nil {
		t.Error("bare context yielded a non-nil recorder")
	}
	// Backends without context support call RunWith(nil, ...): a nil ctx
	// must read as the disabled layer, not panic.
	if tr3, sp3 := FromContext(nil); tr3 != nil || sp3 != nil { //nolint:staticcheck // nil ctx is the point
		t.Error("nil context yielded a non-nil recorder")
	}
}
