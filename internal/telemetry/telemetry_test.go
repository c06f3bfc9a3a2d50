package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Errorf("Counter.Load() = %d, want 42", got)
	}
}

func TestFloatCounterConcurrent(t *testing.T) {
	var f FloatCounter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				f.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got := f.Load(); got != 4000 {
		t.Errorf("FloatCounter.Load() = %v, want 4000", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{-1, 0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 7 {
		t.Errorf("Count = %d, want 7", s.Count)
	}
	if s.Sum != 1009 {
		t.Errorf("Sum = %d, want 1009", s.Sum)
	}
	if s.Max != 1000 {
		t.Errorf("Max = %d, want 1000", s.Max)
	}
	want := []HistogramBucket{
		{Upper: 0, Count: 2},    // -1, 0
		{Upper: 2, Count: 1},    // 1
		{Upper: 4, Count: 2},    // 2, 3
		{Upper: 8, Count: 1},    // 4
		{Upper: 1024, Count: 1}, // 1000
	}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
	// The explicit bounds must arrive strictly increasing so downstream
	// quantile math can consume them without re-sorting.
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i].Upper <= s.Buckets[i-1].Upper {
			t.Errorf("bucket bounds not increasing: %v", s.Buckets)
		}
	}
}

func TestHistogramDurations(t *testing.T) {
	var h Histogram
	h.ObserveDuration(3 * time.Microsecond)
	h.ObserveSeconds(2e-6)
	s := h.Snapshot()
	if s.Count != 2 || s.Sum != 5000 {
		t.Errorf("duration snapshot = %+v, want count 2 sum 5000ns", s)
	}
}

func TestBucketUpper(t *testing.T) {
	if got := bucketUpper(0); got != 0 {
		t.Errorf("bucketUpper(0) = %d", got)
	}
	if got := bucketUpper(10); got != 1024 {
		t.Errorf("bucketUpper(10) = %d", got)
	}
	if got := bucketUpper(64); got != math.MaxInt64 {
		t.Errorf("bucketUpper(64) = %d", got)
	}
}

func TestDecisionReasonString(t *testing.T) {
	want := map[DecisionReason]string{
		FireIdleWorker:     "idle_worker",
		FireDominating:     "dominating_candidate",
		FireTimeout:        "timeout",
		FireBudget:         "budget_exhausted",
		DecisionReason(99): "unknown",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("DecisionReason(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}

// TestOpTable drives the operator funnel table: rows are keyed by kind,
// labelled with the name of their first count, and derive their rates.
func TestOpTable(t *testing.T) {
	tel := New(nil, nil)
	tel.IncOp(1, "swap", OpProposed)
	tel.IncOp(1, "swap", OpProposed)
	tel.IncOp(1, "swap", OpSelected)
	tel.IncOp(1, "swap", OpAccepted)
	tel.IncOp(2, "shift", OpProposed)
	tel.IncOp(0, "none", OpProposed) // kind 0 is no operator: never counted
	snap := tel.Snapshot()["operators"].(map[string]map[string]any)
	if len(snap) != 2 {
		t.Fatalf("funnel rows = %v, want swap and shift", snap)
	}
	swap := snap["swap"]
	if swap["proposed"].(int64) != 2 || swap["selected"].(int64) != 1 || swap["accepted"].(int64) != 1 {
		t.Errorf("swap funnel = %v", swap)
	}
	if swap["select_rate"].(float64) != 0.5 || swap["accept_rate"].(float64) != 0.5 {
		t.Errorf("swap rates = %v", swap)
	}
	if _, ok := snap["shift"]["select_rate"]; !ok {
		t.Errorf("shift missing select_rate: %v", snap["shift"])
	}
	c := tel.Counters()
	if f := c.Funnel(); len(f) != 2 || f[0].Name != "swap" || f[1].N[OpProposed] != 1 {
		t.Errorf("Funnel() = %+v", f)
	}
}

// TestAddOp checks the per-sweep funnel count: AddOp(n) lands where n
// IncOps would, and a zero count neither counts nor opens a row.
func TestAddOp(t *testing.T) {
	tel := New(nil, nil)
	tel.AddOp(3, "relocate", OpProposed, 7)
	tel.IncOp(3, "relocate", OpProposed)
	tel.AddOp(4, "exchange", OpProposed, 0)
	tel.AddOp(0, "none", OpProposed, 5) // kind 0 is no operator: never counted
	c := tel.Counters()
	if f := c.Funnel(); len(f) != 1 || f[0].Name != "relocate" || f[0].N[OpProposed] != 8 {
		t.Errorf("Funnel() = %+v, want one relocate row with 8 proposals", f)
	}
	var off *Telemetry
	off.AddOp(3, "relocate", OpProposed, 2) // nil-safe
}

// TestNilSafety drives every recording method through a nil layer: the
// disabled path must be a silent no-op everywhere.
func TestNilSafety(t *testing.T) {
	var tel *Telemetry
	if tel.Enabled() {
		t.Fatal("nil layer reports enabled")
	}
	for id := CounterID(0); id < numCounters; id++ {
		tel.Inc(id)
		tel.Add(id, 3)
		if tel.Load(id) != 0 {
			t.Errorf("nil layer loaded a non-zero counter %d", id)
		}
	}
	for id := FloatID(0); id < numFloats; id++ {
		tel.AddFloat(id, 0.5)
	}
	tel.IncOp(1, "swap", OpProposed)
	if c := tel.Counters(); c != (Counters{}) {
		t.Error("nil layer counters not zero")
	}
	tel.Event(Record{Kind: "ignored", Values: map[string]any{"k": 1}})
	tel.Logger().Info("dropped")
	if tel.Snapshot() != nil {
		t.Error("nil layer snapshot not nil")
	}
	if err := tel.Close(); err != nil {
		t.Error(err)
	}
	var w *Writer
	w.Emit(map[string]any{"k": 1})
	if err := w.Close(); err != nil {
		t.Error(err)
	}
}

// TestDisabledZeroAlloc is the strict half of the overhead gate: every
// disabled-path recording call must allocate nothing.
func TestDisabledZeroAlloc(t *testing.T) {
	var tel *Telemetry
	if allocs := testing.AllocsPerRun(100, func() {
		tel.Inc(Iterations)
		tel.Add(Evaluations, 200)
		tel.Inc(TabuRejected)
		tel.Inc(FireTimeout.Counter())
		tel.AddFloat(WorkerIdleSeconds, 0.01)
		tel.Inc(DeltaFast)
		tel.Inc(SpliceCalls)
		tel.Inc(RecvTimeouts)
		tel.IncOp(1, "swap", OpProposed)
	}); allocs != 0 {
		t.Errorf("disabled telemetry allocates %v times per iteration, want 0", allocs)
	}
}

// TestEnabledZeroAlloc pins the enabled instruments to zero allocations
// too — only event emission may allocate.
func TestEnabledZeroAlloc(t *testing.T) {
	tel := New(nil, nil)
	if allocs := testing.AllocsPerRun(100, func() {
		tel.Inc(Iterations)
		tel.Add(Evaluations, 200)
		tel.Inc(FireIdleWorker.Counter())
		tel.Async.PartialSizes.Observe(50)
		tel.Async.WaitSeconds.ObserveSeconds(1.0)
		tel.AddFloat(WorkerIdleSeconds, 0.01)
		tel.Inc(DeltaFast)
		tel.Inc(SpliceCalls)
		tel.Inc(RecvTimeouts)
		tel.IncOp(1, "swap", OpProposed)
	}); allocs != 0 {
		t.Errorf("enabled instruments allocate %v times per iteration, want 0", allocs)
	}
}

func TestWriterJSONL(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	tel := New(nil, w)
	tel.Inc(Iterations)
	tel.Event(RestartEvent{Proc: 0})
	tel.Event(Record{Kind: "summary", Values: map[string]any{"instance": "R1_40", "counters": tel.Snapshot()}})
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	if lines[0]["event"] != "restart" || lines[0]["trigger"] != "stagnation" {
		t.Errorf("restart event = %v", lines[0])
	}
	if _, err := time.Parse(time.RFC3339Nano, lines[0]["ts"].(string)); err != nil {
		t.Errorf("bad ts: %v", err)
	}
	sum := lines[1]
	if sum["event"] != "summary" || sum["instance"] != "R1_40" {
		t.Errorf("summary event = %v", sum)
	}
	counters := sum["counters"].(map[string]any)
	search := counters["search"].(map[string]any)
	if search["iterations"].(float64) != 1 {
		t.Errorf("summary counters lost the iteration: %v", search)
	}
	for _, group := range []string{"search", "async", "worker", "share", "archive", "nondom", "delta", "splice"} {
		if _, ok := counters[group]; !ok {
			t.Errorf("summary counters missing group %s", group)
		}
	}
}

// errWriter fails after the first write to exercise the sticky error.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	e.n++
	if e.n > 1 {
		return 0, io.ErrClosedPipe
	}
	return len(p), nil
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(&errWriter{})
	big := strings.Repeat("x", 1<<16) // larger than the bufio buffer, forces the flush
	w.Emit(map[string]any{"pad": big})
	w.Emit(map[string]any{"pad": big})
	w.Emit(map[string]any{"pad": big})
	if err := w.Close(); err == nil {
		t.Error("Close() lost the write error")
	}
}

func TestParseLevel(t *testing.T) {
	for s, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"warn": slog.LevelWarn, "error": slog.LevelError,
	} {
		got, err := ParseLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestNewLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelWarn)
	log.Info("hidden")
	log.Warn("shown")
	out := buf.String()
	if strings.Contains(out, "hidden") || !strings.Contains(out, "shown") {
		t.Errorf("level filtering broken: %q", out)
	}
}

func TestServeEndpoints(t *testing.T) {
	tel := New(nil, nil)
	tel.Inc(Iterations)
	srv, err := Serve("127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) map[string]any {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return v
	}

	snap := get("/telemetry")
	if snap["search"].(map[string]any)["iterations"].(float64) != 1 {
		t.Errorf("/telemetry snapshot = %v", snap["search"])
	}
	vars := get("/debug/vars")
	if _, ok := vars["telemetry"]; !ok {
		t.Error("/debug/vars missing the published telemetry variable")
	}
	resp, err := http.Get("http://" + srv.Addr + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: %s", resp.Status)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tel := New(nil, nil)
	tel.Async.PartialSizes.Observe(12)
	tel.IncOp(1, "relocate", OpProposed)
	b, err := json.Marshal(tel.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "relocate") {
		t.Errorf("snapshot JSON lost the operator table: %s", b)
	}
}
