package service

import (
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// svcMetrics backs the service's Prometheus endpoint: submission and
// completion counters, the per-job SLO histograms, and the aggregation of
// solver telemetry across jobs. Every exposed series is monotone by
// construction between scrapes — the lint gate in scripts/metricslint
// depends on it:
//
//   - The lifecycle counters and SLO histograms only ever increment.
//   - Solver counters (tsmo_*) are the sum of a retired ledger plus the
//     live counters of running jobs, both telemetry.Counters tables. A job's final counter values are
//     folded into the ledger exactly once as it turns terminal (inside the
//     job's doneOnce), and folded jobs are skipped by the live sum, so a
//     series can never go backwards when a job finishes or is evicted —
//     eviction only forgets the folded marker, never the ledger.
//
// Lock order: j.mu or s.mu may be held when taking met.mu, never the
// reverse — svcMetrics calls out to nothing.
type svcMetrics struct {
	mu        sync.Mutex
	submitted int64
	rejected  map[string]int64 // reason -> submissions refused
	completed map[string]int64 // terminal state -> jobs
	retired   telemetry.Counters
	anyJob    bool            // some job's counters were folded: the solver series exist
	folded    map[string]bool // job IDs whose telemetry is in retired

	// Per-tenant admission counters and SLO histograms, keyed by
	// tenant. The histograms are created on a tenant's first
	// observation and never removed, so every exposed series is
	// monotone across scrapes like the rest.
	tenantSubmitted  map[string]int64
	tenantRejected   map[string]int64
	tenantQueueWait  map[string]*telemetry.Histogram
	tenantFirstPoint map[string]*telemetry.Histogram

	// The SLO histograms, in nanoseconds (exposed in seconds):
	// submit->start, submit->first front point, submit->terminal.
	queueWait  telemetry.Histogram
	firstPoint telemetry.Histogram
	duration   telemetry.Histogram
}

func newSvcMetrics() *svcMetrics {
	return &svcMetrics{
		rejected:         make(map[string]int64),
		completed:        make(map[string]int64),
		folded:           make(map[string]bool),
		tenantSubmitted:  make(map[string]int64),
		tenantRejected:   make(map[string]int64),
		tenantQueueWait:  make(map[string]*telemetry.Histogram),
		tenantFirstPoint: make(map[string]*telemetry.Histogram),
	}
}

// submitTenant counts one accepted submission, globally and for the
// tenant.
func (m *svcMetrics) submitTenant(tn string) {
	m.mu.Lock()
	m.submitted++
	m.tenantSubmitted[tn]++
	m.mu.Unlock()
}

func (m *svcMetrics) reject(reason string) {
	m.mu.Lock()
	m.rejected[reason]++
	m.mu.Unlock()
}

// rejectTenant counts one quota/admission refusal: globally by reason,
// and per tenant (the tenant series aggregates across reasons — the
// exposition keeps one label per series).
func (m *svcMetrics) rejectTenant(tn, reason string) {
	m.mu.Lock()
	m.rejected[reason]++
	m.tenantRejected[tn]++
	m.mu.Unlock()
}

func (m *svcMetrics) complete(state, tn string, queued, total time.Duration, sawPoint bool, firstPoint time.Duration) {
	m.mu.Lock()
	m.completed[state]++
	qw := m.tenantQueueWait[tn]
	if qw == nil {
		qw = &telemetry.Histogram{}
		m.tenantQueueWait[tn] = qw
	}
	fp := m.tenantFirstPoint[tn]
	if fp == nil {
		fp = &telemetry.Histogram{}
		m.tenantFirstPoint[tn] = fp
	}
	m.mu.Unlock()
	m.queueWait.ObserveDuration(queued)
	m.duration.ObserveDuration(total)
	qw.ObserveDuration(queued)
	if sawPoint {
		m.firstPoint.ObserveDuration(firstPoint)
		fp.ObserveDuration(firstPoint)
	}
}

// fold moves a terminal job's final telemetry into the retired ledger.
// Called exactly once per job (the job's doneOnce).
func (m *svcMetrics) fold(jobID string, tel *telemetry.Telemetry) {
	c := tel.Counters()
	m.mu.Lock()
	m.retired.Add(&c)
	m.anyJob = true
	m.folded[jobID] = true
	m.mu.Unlock()
}

// forget drops an evicted job's folded marker. Its retired sums stay.
func (m *svcMetrics) forget(jobID string) {
	m.mu.Lock()
	delete(m.folded, jobID)
	m.mu.Unlock()
}

// writeMetrics renders the full Prometheus text-format exposition:
// build info, queue/pool gauges, lifecycle counters, SLO histograms, and
// the cross-job tsmo_* solver counters. jobs is the retained-job list,
// captured under s.mu by the caller before met.mu is taken here.
func (m *svcMetrics) writeMetrics(w io.Writer, st Stats, jobs []*Job) error {
	version := st.Version
	if version == "" {
		version = "unknown"
	}
	if err := telemetry.WritePromGauge(w, "tsmod_build_info",
		"Build metadata; the value is always 1.",
		[][2]string{{"version", version}}, 1); err != nil {
		return err
	}
	gauges := []struct {
		name, help string
		v          float64
	}{
		{"tsmod_workers", "Configured worker-pool size.", float64(st.Workers)},
		{"tsmod_busy_workers", "Workers currently running a job.", float64(st.Busy)},
		{"tsmod_queue_len", "Jobs waiting in the bounded queue.", float64(st.QueueLen)},
		{"tsmod_queue_cap", "Capacity of the bounded queue.", float64(st.QueueCap)},
	}
	for _, g := range gauges {
		if err := telemetry.WritePromGauge(w, g.name, g.help, nil, g.v); err != nil {
			return err
		}
	}

	// Per-lane occupancy gauges, one series per tenant.
	tenants := make([]string, 0, len(st.Tenants))
	for tn := range st.Tenants {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	queuedRows := make([]telemetry.GaugeRow, 0, len(tenants))
	runningRows := make([]telemetry.GaugeRow, 0, len(tenants))
	weightRows := make([]telemetry.GaugeRow, 0, len(tenants))
	for _, tn := range tenants {
		ls := st.Tenants[tn]
		label := [][2]string{{"tenant", tn}}
		queuedRows = append(queuedRows, telemetry.GaugeRow{Labels: label, V: float64(ls.Queued)})
		runningRows = append(runningRows, telemetry.GaugeRow{Labels: label, V: float64(ls.Running)})
		weightRows = append(weightRows, telemetry.GaugeRow{Labels: label, V: float64(ls.Weight)})
	}
	for _, g := range []struct {
		name, help string
		rows       []telemetry.GaugeRow
	}{
		{"tsmod_tenant_queued", "Jobs waiting in the tenant's scheduler lane.", queuedRows},
		{"tsmod_tenant_running", "Tenant jobs currently running.", runningRows},
		{"tsmod_tenant_weight", "Fair-share weight of the tenant's lane.", weightRows},
	} {
		if len(g.rows) == 0 {
			continue
		}
		if err := telemetry.WritePromGaugeVec(w, g.name, g.help, g.rows); err != nil {
			return err
		}
	}

	m.mu.Lock()
	life := []telemetry.Sample{{Name: "tsmod_jobs_submitted_total", V: float64(m.submitted)}}
	for reason, n := range m.rejected {
		life = append(life, telemetry.Sample{Name: "tsmod_jobs_rejected_total",
			LabelKey: "reason", LabelValue: reason, V: float64(n)})
	}
	for state, n := range m.completed {
		life = append(life, telemetry.Sample{Name: "tsmod_jobs_completed_total",
			LabelKey: "state", LabelValue: state, V: float64(n)})
	}
	for tn, n := range m.tenantSubmitted {
		life = append(life, telemetry.Sample{Name: "tsmod_tenant_submitted_total",
			LabelKey: "tenant", LabelValue: tn, V: float64(n)})
	}
	for tn, n := range m.tenantRejected {
		life = append(life, telemetry.Sample{Name: "tsmod_tenant_rejected_total",
			LabelKey: "tenant", LabelValue: tn, V: float64(n)})
	}
	// Snapshot the per-tenant SLO histograms under met.mu; they render
	// after the lock drops.
	tqw := make([]telemetry.HistogramRow, 0, len(m.tenantQueueWait))
	for tn, h := range m.tenantQueueWait {
		tqw = append(tqw, telemetry.HistogramRow{Labels: [][2]string{{"tenant", tn}}, Snap: h.Snapshot()})
	}
	tfp := make([]telemetry.HistogramRow, 0, len(m.tenantFirstPoint))
	for tn, h := range m.tenantFirstPoint {
		tfp = append(tfp, telemetry.HistogramRow{Labels: [][2]string{{"tenant", tn}}, Snap: h.Snapshot()})
	}
	sort.Slice(tqw, func(i, j int) bool { return tqw[i].Labels[0][1] < tqw[j].Labels[0][1] })
	sort.Slice(tfp, func(i, j int) bool { return tfp[i].Labels[0][1] < tfp[j].Labels[0][1] })

	// Solver counters: retired ledger + live counters of unfolded jobs.
	agg, anyJob := m.retired, m.anyJob
	for _, j := range jobs {
		if m.folded[j.ID] {
			continue
		}
		c := j.tel.Counters()
		agg.Add(&c)
		anyJob = true
	}
	m.mu.Unlock()

	if err := telemetry.WritePromSamples(w, life); err != nil {
		return err
	}
	hists := []struct {
		name, help string
		h          *telemetry.Histogram
	}{
		{"tsmod_job_queue_wait_seconds", "Submit-to-start queue wait per job.", &m.queueWait},
		{"tsmod_job_first_point_seconds", "Submit-to-first-front-point latency per job.", &m.firstPoint},
		{"tsmod_job_duration_seconds", "Submit-to-terminal-state duration per job.", &m.duration},
	}
	for _, h := range hists {
		if err := telemetry.WritePromHistogram(w, h.name, h.help, h.h.Snapshot(), 1e-9); err != nil {
			return err
		}
	}
	for _, hv := range []struct {
		name, help string
		rows       []telemetry.HistogramRow
	}{
		{"tsmod_tenant_queue_wait_seconds", "Submit-to-start queue wait per job, by tenant.", tqw},
		{"tsmod_tenant_first_point_seconds", "Submit-to-first-front-point latency per job, by tenant.", tfp},
	} {
		if len(hv.rows) == 0 {
			continue
		}
		if err := telemetry.WritePromHistogramVec(w, hv.name, hv.help, hv.rows, 1e-9); err != nil {
			return err
		}
	}
	if !anyJob {
		return nil
	}
	return telemetry.WritePromSamples(w, agg.Samples())
}
