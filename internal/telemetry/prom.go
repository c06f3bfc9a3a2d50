package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format 0.0.4) for the counter table.
// Samples flattens every counter into (name, one label pair, value)
// triples; the Write* helpers render them with one HELP/TYPE header per
// metric family, sorted so the exposition is stable and duplicate-free.
// The service layer sums per-job Counters before rendering their Samples;
// the standalone telemetry server renders one instance
// directly (WriteProm).

// Sample is one exposition sample: a metric name, at most one label pair
// (LabelKey == "" means no labels), and the current value.
type Sample struct {
	Name       string
	LabelKey   string
	LabelValue string
	V          float64
}

// Key identifies the series: metric name plus rendered label set, for
// consumers that key samples by series.
func (s Sample) Key() string {
	if s.LabelKey == "" {
		return s.Name
	}
	return s.Name + "{" + s.LabelKey + "=" + s.LabelValue + "}"
}

// Samples flattens the counter table into exposition samples. All values
// are cumulative (counters), so an aggregator summing them across
// instances stays monotone as long as it retires finished instances into
// a persistent sum. Nil-safe: a disabled layer yields nil.
func (t *Telemetry) Samples() []Sample {
	if t == nil {
		return nil
	}
	c := t.Counters()
	return c.Samples()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// formatFloat renders a sample value the shortest way that round-trips.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePromSamples renders counter samples grouped by metric family: one
// # HELP/# TYPE pair per name, samples sorted by (name, label) so the
// exposition is stable and never emits a duplicate series.
func WritePromSamples(w io.Writer, samples []Sample) error {
	sorted := append([]Sample(nil), samples...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Name != sorted[j].Name {
			return sorted[i].Name < sorted[j].Name
		}
		if sorted[i].LabelKey != sorted[j].LabelKey {
			return sorted[i].LabelKey < sorted[j].LabelKey
		}
		return sorted[i].LabelValue < sorted[j].LabelValue
	})
	last := ""
	for _, s := range sorted {
		if s.Name != last {
			if err := writePromHeader(w, s.Name, strings.ReplaceAll(strings.TrimSuffix(s.Name, "_total"), "_", " ")+".", "counter"); err != nil {
				return err
			}
			last = s.Name
		}
		line := s.Name
		if s.LabelKey != "" {
			line += "{" + s.LabelKey + `="` + escapeLabel(s.LabelValue) + `"}`
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", line, formatFloat(s.V)); err != nil {
			return err
		}
	}
	return nil
}

func writePromHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return err
}

// WritePromGauge renders a single gauge sample with its own family header.
func WritePromGauge(w io.Writer, name, help string, labels [][2]string, v float64) error {
	if err := writePromHeader(w, name, help, "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(labels), formatFloat(v))
	return err
}

// GaugeRow is one series of a multi-series gauge family: a full label
// set (rendered in the given order) and the current value.
type GaugeRow struct {
	Labels [][2]string
	V      float64
}

func renderLabels(labels [][2]string) string {
	var lb strings.Builder
	for i, kv := range labels {
		if i == 0 {
			lb.WriteByte('{')
		} else {
			lb.WriteByte(',')
		}
		lb.WriteString(kv[0])
		lb.WriteString(`="`)
		lb.WriteString(escapeLabel(kv[1]))
		lb.WriteByte('"')
	}
	if lb.Len() > 0 {
		lb.WriteByte('}')
	}
	return lb.String()
}

// WritePromGaugeVec renders a gauge family with one sample per row under
// a single HELP/TYPE header. Callers must pass rows pre-sorted (and with
// distinct label sets) so the exposition stays stable and duplicate-free.
func WritePromGaugeVec(w io.Writer, name, help string, rows []GaugeRow) error {
	if err := writePromHeader(w, name, help, "gauge"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(r.Labels), formatFloat(r.V)); err != nil {
			return err
		}
	}
	return nil
}

// HistogramRow is one series of a multi-series histogram family: the
// identifying label set (le excluded — it is appended per bucket) and
// the snapshot to render.
type HistogramRow struct {
	Labels [][2]string
	Snap   HistogramSnapshot
}

// WritePromHistogramVec renders a histogram family with one header and a
// full bucket/sum/count group per row. Rows must be pre-sorted by label
// set; within each row buckets render in increasing le order, so linters
// that group buckets by their non-le labels see each series monotone.
func WritePromHistogramVec(w io.Writer, name, help string, rows []HistogramRow, scale float64) error {
	if err := writePromHeader(w, name, help, "histogram"); err != nil {
		return err
	}
	for _, r := range rows {
		if err := writeHistogramSeries(w, name, r.Labels, r.Snap, scale); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogramSeries renders one label-set's cumulative buckets, sum,
// and count (no family header).
func writeHistogramSeries(w io.Writer, name string, labels [][2]string, snap HistogramSnapshot, scale float64) error {
	var cum int64
	for _, b := range snap.Buckets {
		if b.Upper == math.MaxInt64 {
			continue // folded into +Inf below
		}
		cum += b.Count
		le := strconv.FormatFloat(float64(b.Upper)*scale, 'g', -1, 64)
		bl := append(append([][2]string(nil), labels...), [2]string{"le", le})
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(bl), cum); err != nil {
			return err
		}
	}
	il := append(append([][2]string(nil), labels...), [2]string{"le", "+Inf"})
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(il), snap.Count); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(labels), formatFloat(float64(snap.Sum)*scale)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(labels), snap.Count)
	return err
}

// WritePromHistogram renders a HistogramSnapshot as a Prometheus
// histogram family: cumulative _bucket lines in increasing le order, the
// mandatory le="+Inf" bucket equal to _count, then _sum and _count.
// scale converts the histogram's integer unit into the exposition unit
// (1e-9 for nanosecond histograms exposed in seconds). The power-of-two
// upper bounds are exclusive, which a le (<=) bound over-covers by one
// integer unit — irrelevant at nanosecond resolution and still monotone.
func WritePromHistogram(w io.Writer, name, help string, snap HistogramSnapshot, scale float64) error {
	if err := writePromHeader(w, name, help, "histogram"); err != nil {
		return err
	}
	return writeHistogramSeries(w, name, nil, snap, scale)
}

// WriteProm renders one Telemetry instance's full exposition: every
// counter sample plus the two async histograms. The solver service does
// not use this directly (it aggregates Samples across jobs and owns its
// SLO histograms); this is the standalone telemetry server's /metrics.
func WriteProm(w io.Writer, t *Telemetry) error {
	if err := WritePromSamples(w, t.Samples()); err != nil {
		return err
	}
	if t == nil {
		return nil
	}
	if err := WritePromHistogram(w, "tsmo_async_partial_size", "Candidate-set size per async master step.",
		t.Async.PartialSizes.Snapshot(), 1); err != nil {
		return err
	}
	return WritePromHistogram(w, "tsmo_async_wait_seconds", "Per-iteration async master wait.",
		t.Async.WaitSeconds.Snapshot(), 1e-9)
}
