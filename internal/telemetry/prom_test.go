package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestSamplesCoverGroups(t *testing.T) {
	tel := New(nil, nil)
	tel.Add(Iterations, 7)
	tel.IncOp(4, "2opt*", OpProposed)
	samples := tel.Samples()
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	seen := map[string]bool{}
	for _, s := range samples {
		if seen[s.Key()] {
			t.Errorf("duplicate series %s", s.Key())
		}
		seen[s.Key()] = true
		if !strings.HasPrefix(s.Name, "tsmo_") {
			t.Errorf("sample %q lacks the tsmo_ prefix", s.Name)
		}
	}
	for _, want := range []string{
		"tsmo_search_iterations_total",
		"tsmo_search_restarts_total{trigger=no_candidate}",
		"tsmo_async_decision_total{reason=timeout}",
		"tsmo_store_accepts_total{memory=nondom}",
		"tsmo_delta_evals_total{path=fast}",
		"tsmo_faults_injected_total{kind=crash}",
		"tsmo_fault_recovery_total{kind=recv_timeout}",
		"tsmo_checkpoint_snapshots_total",
		"tsmo_operator_proposed_total{op=2opt*}",
	} {
		if !seen[want] {
			t.Errorf("missing series %s", want)
		}
	}

	var nilTel *Telemetry
	if nilTel.Samples() != nil {
		t.Error("nil telemetry produced samples")
	}

	// Table invariants: every counter is placed in both reports, and no
	// two counters share a snapshot path or a series.
	paths := map[string]bool{}
	series := map[string]bool{}
	check := func(what string, d counterDesc) {
		if d.group == "" || d.key == "" || d.family == "" {
			t.Errorf("%s has an empty group/key/family: %+v", what, d)
		}
		if (d.label == "") != (d.labelValue == "") {
			t.Errorf("%s has a half label pair: %+v", what, d)
		}
		if p := d.group + "/" + d.key; paths[p] {
			t.Errorf("%s duplicates snapshot path %s", what, p)
		} else {
			paths[p] = true
		}
		if k := d.sample(0).Key(); series[k] {
			t.Errorf("%s duplicates series %s", what, k)
		} else {
			series[k] = true
		}
	}
	for id, d := range counterTable {
		check("counter "+strconv.Itoa(id), d)
	}
	for id, d := range floatTable {
		check("float "+strconv.Itoa(id), d)
	}
	for st, d := range opStageTable {
		check("op stage "+strconv.Itoa(st), counterDesc{group: "operators", key: d.key, family: d.family, label: "op", labelValue: "x"})
	}
	// The two store blocks share one layout.
	if NondomAccepts+StoreReject != NondomRejects || NondomAccepts+StoreEvict != NondomEvictions {
		t.Error("nondom store block does not mirror the archive block")
	}
	for r := FireIdleWorker; r <= FireBudget; r++ {
		if d := counterTable[r.Counter()]; d.labelValue != r.String() {
			t.Errorf("reason %s counts into %+v", r, d)
		}
	}
}

func TestWritePromSamplesFormat(t *testing.T) {
	tel := New(nil, nil)
	tel.Add(Iterations, 3)
	var buf bytes.Buffer
	if err := WritePromSamples(&buf, tel.Samples()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE tsmo_search_iterations_total counter\n") {
		t.Error("missing TYPE header")
	}
	if !strings.Contains(out, "tsmo_search_iterations_total 3\n") {
		t.Error("missing sample line")
	}
	// One TYPE header per family, even for multi-sample families.
	if n := strings.Count(out, "# TYPE tsmo_search_restarts_total "); n != 1 {
		t.Errorf("restarts family has %d TYPE headers, want 1", n)
	}
	// Every line must be a comment or a well-formed sample.
	types := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if types[f[2]] {
				t.Errorf("duplicate TYPE for %s", f[2])
			}
			types[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed line %q", line)
		}
		if _, err := strconv.ParseFloat(line[i+1:], 64); err != nil {
			t.Errorf("non-numeric value on %q", line)
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if !types[name] {
			t.Errorf("sample %q precedes its TYPE header", line)
		}
	}
}

func TestWritePromHistogram(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 3, 3, 1000} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := WritePromHistogram(&buf, "tsmo_test_seconds", "help.", h.Snapshot(), 1e-9); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE tsmo_test_seconds histogram\n") {
		t.Fatal("missing histogram TYPE")
	}
	// Buckets are cumulative and monotone, and +Inf equals _count.
	var prev int64 = -1
	var inf, count int64 = -1, -1
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "tsmo_test_seconds_bucket{le=\"+Inf\"}"):
			inf, _ = strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		case strings.HasPrefix(line, "tsmo_test_seconds_bucket"):
			v, _ := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
			if v < prev {
				t.Errorf("bucket counts not monotone: %s", out)
			}
			prev = v
		case strings.HasPrefix(line, "tsmo_test_seconds_count"):
			count, _ = strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		}
	}
	if inf != 5 || count != 5 {
		t.Errorf("+Inf bucket %d, _count %d, want both 5:\n%s", inf, count, out)
	}
	if !strings.Contains(out, "tsmo_test_seconds_sum 1.007e-06\n") {
		t.Errorf("sum line wrong:\n%s", out)
	}
}

func TestWritePromHistogramVec(t *testing.T) {
	var a, b Histogram
	a.Observe(1)
	a.Observe(3)
	b.Observe(1000)
	var buf bytes.Buffer
	rows := []HistogramRow{
		{Labels: [][2]string{{"tenant", "acme"}}, Snap: a.Snapshot()},
		{Labels: [][2]string{{"tenant", "beta"}}, Snap: b.Snapshot()},
	}
	if err := WritePromHistogramVec(&buf, "tsmo_vec_seconds", "help.", rows, 1e-9); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if n := strings.Count(out, "# TYPE tsmo_vec_seconds histogram\n"); n != 1 {
		t.Errorf("want exactly one TYPE header, got %d:\n%s", n, out)
	}
	for _, want := range []string{
		`tsmo_vec_seconds_bucket{tenant="acme",le="+Inf"} 2`,
		`tsmo_vec_seconds_count{tenant="acme"} 2`,
		`tsmo_vec_seconds_bucket{tenant="beta",le="+Inf"} 1`,
		`tsmo_vec_seconds_count{tenant="beta"} 1`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing line %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, `tsmo_vec_seconds_sum{tenant="beta"} `) {
		t.Errorf("missing beta _sum in:\n%s", out)
	}
	// Each series' groups must be contiguous: acme's count precedes
	// beta's first bucket.
	if strings.Index(out, `_count{tenant="acme"}`) > strings.Index(out, `_bucket{tenant="beta"`) {
		t.Errorf("per-series groups interleaved:\n%s", out)
	}
}

func TestWritePromGaugeVec(t *testing.T) {
	var buf bytes.Buffer
	rows := []GaugeRow{
		{Labels: [][2]string{{"tenant", "acme"}}, V: 2},
		{Labels: [][2]string{{"tenant", "beta"}}, V: 0},
	}
	if err := WritePromGaugeVec(&buf, "tsmo_vec_queued", "help.", rows); err != nil {
		t.Fatal(err)
	}
	want := "# HELP tsmo_vec_queued help.\n# TYPE tsmo_vec_queued gauge\n" +
		`tsmo_vec_queued{tenant="acme"} 2` + "\n" + `tsmo_vec_queued{tenant="beta"} 0` + "\n"
	if buf.String() != want {
		t.Errorf("gauge vec exposition:\n%q\nwant\n%q", buf.String(), want)
	}
}

func TestWritePromGauge(t *testing.T) {
	var buf bytes.Buffer
	if err := WritePromGauge(&buf, "tsmo_build_info", "Build metadata.",
		[][2]string{{"version", "v1.2.3"}, {"go", "go1.22"}}, 1); err != nil {
		t.Fatal(err)
	}
	want := "# HELP tsmo_build_info Build metadata.\n# TYPE tsmo_build_info gauge\n" +
		`tsmo_build_info{version="v1.2.3",go="go1.22"} 1` + "\n"
	if buf.String() != want {
		t.Errorf("gauge exposition:\n%q\nwant\n%q", buf.String(), want)
	}
}
