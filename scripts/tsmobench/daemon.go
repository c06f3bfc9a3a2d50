package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dynamic"
	"repro/internal/resultio"
	"repro/internal/rng"
	"repro/internal/service"
	"repro/internal/solution"
	"repro/internal/trace"
	"repro/internal/vrptw"
)

// clients is the number of concurrent client connections of the daemon
// loads: two submitters in svc-submit, one event stream plus one PATCH
// sender in svc-mutate.
const clients = 2

// daemon is an in-process durable tsmod on a loopback listener, and the
// HTTP client every load shares.
type daemon struct {
	svc    *service.Service
	srv    *http.Server
	served chan struct{}
	base   string
	dir    string
	hc     *http.Client
}

func openDaemon(scratch string) (*daemon, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "daemon-")
	if err != nil {
		return nil, err
	}
	svc, err := service.Open(service.Config{Workers: 2, QueueDepth: 4, MaxEvaluations: -1, DataDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{
		svc:    svc,
		srv:    &http.Server{Handler: svc.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
	go func() {
		defer close(d.served)
		d.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed from close
	}()
	return d, nil
}

// close cancels every job, stops the daemon and removes its data.
func (d *daemon) close() {
	d.svc.Close()
	d.srv.Close()
	<-d.served
	d.hc.CloseIdleConnections()
	os.RemoveAll(d.dir)
}

// call sends one request with an optional JSON body and decodes a 2xx
// answer into out (raw bytes for *[]byte, skipped for nil). Any other
// status is an error.
func (d *daemon) call(ctx context.Context, method, path string, body []byte, out any, traceparent string) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) //nolint:errcheck // best-effort error text
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	switch o := out.(type) {
	case nil:
		_, err = io.Copy(io.Discard, resp.Body)
	case *[]byte:
		*o, err = io.ReadAll(resp.Body)
	default:
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	return err
}

// event is one job event as the client received it.
type event struct {
	service.Event
	recv time.Time
}

func terminalEvent(name string) bool {
	return name == string(service.StateDone) || name == string(service.StateFailed) || name == string(service.StateCanceled)
}

func fieldFloat(ev event, key string) float64 {
	v, _ := ev.Fields[key].(float64) //nolint:errcheck // absent fields read as 0
	return v
}

// follow reads a job's event stream until the daemon ends it, which it does
// once the job is terminal and every event has been sent.
func (d *daemon) follow(ctx context.Context, id string, on func(event)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := d.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("event stream of %s: %s", id, resp.Status)
	}
	rd := bufio.NewReader(resp.Body)
	var data []byte
	for {
		line, err := rd.ReadBytes('\n')
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data[:0], line[len("data: "):]...)
		case len(line) == 0 && len(data) > 0:
			ev := event{recv: time.Now()}
			if err := json.Unmarshal(data, &ev.Event); err != nil {
				return fmt.Errorf("event stream of %s: %w", id, err)
			}
			data = data[:0]
			on(ev)
		}
	}
}

// counters scrapes the daemon's tsmo_* solver counters, keyed like
// telemetry.Sample.Key.
func (d *daemon) counters(ctx context.Context) (map[string]float64, error) {
	var raw []byte
	if err := d.call(ctx, http.MethodGet, "/metrics", nil, &raw, ""); err != nil {
		return nil, err
	}
	m := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || !strings.HasPrefix(f[0], "tsmo_") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[strings.ReplaceAll(f[0], `"`, "")] = v
	}
	return m, nil
}

func diffCounters(after, before map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// otlpSpan is the part of an exported span the self-time split reads.
type otlpSpan struct {
	ID     string `json:"spanId"`
	Parent string `json:"parentSpanId"`
	Name   string `json:"name"`
	Start  string `json:"startTimeUnixNano"`
	End    string `json:"endTimeUnixNano"`
}

// jobSpans fetches a job's recorded spans.
func (d *daemon) jobSpans(ctx context.Context, id string) ([]otlpSpan, error) {
	var doc struct {
		ResourceSpans []struct {
			ScopeSpans []struct {
				Spans []otlpSpan `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := d.call(ctx, http.MethodGet, "/v1/jobs/"+id+"/trace", nil, &doc, ""); err != nil {
		return nil, err
	}
	var out []otlpSpan
	for _, rs := range doc.ResourceSpans {
		for _, ss := range rs.ScopeSpans {
			out = append(out, ss.Spans...)
		}
	}
	return out, nil
}

// selfTimes adds every span's self time — its duration minus the part of
// it its children cover — to by, keyed by span name, in ms. Span IDs are
// unique within one job's trace, so call it once per job.
func selfTimes(spans []otlpSpan, by map[string][]float64) {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, len(spans))
	kids := make(map[string][]iv)
	for i, s := range spans {
		lo, err1 := strconv.ParseInt(s.Start, 10, 64)
		hi, err2 := strconv.ParseInt(s.End, 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		ivs[i] = iv{lo, hi}
		kids[s.Parent] = append(kids[s.Parent], ivs[i])
	}
	for i, s := range spans {
		own := ivs[i]
		cs := append([]iv(nil), kids[s.ID]...)
		sort.Slice(cs, func(a, b int) bool { return cs[a].lo < cs[b].lo })
		covered, reach := int64(0), own.lo
		for _, c := range cs {
			lo, hi := max(c.lo, reach), min(c.hi, own.hi)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		by[s.Name] = append(by[s.Name], float64(own.hi-own.lo-covered)/1e6)
	}
}

// checkResult validates a fetched result against the instance the client
// derived itself: every member routes each customer once within capacity,
// and its reported objectives match a from-scratch evaluation.
func checkResult(in *vrptw.Instance, ff *resultio.FrontFile) error {
	if len(ff.Solutions) == 0 {
		return errors.New("empty result")
	}
	for i, rec := range ff.Solutions {
		for _, route := range rec.Routes {
			for _, c := range route {
				if c < 1 || c > in.N() {
					return fmt.Errorf("solution %d routes unknown customer %d", i, c)
				}
			}
		}
		s := solution.New(in, rec.Routes)
		if err := solution.Validate(in, s); err != nil {
			return fmt.Errorf("solution %d: %w", i, err)
		}
		got := solution.Objectives{Distance: rec.Distance, Vehicles: rec.Vehicles, Tardiness: rec.Tardiness}
		if !nearObj(got, s.Obj) {
			return fmt.Errorf("solution %d reports %+v, its routes evaluate to %+v", i, got, s.Obj)
		}
	}
	return nil
}

func nearObj(a, b solution.Objectives) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-6*(1+math.Abs(y)) }
	return near(a.Distance, b.Distance) && near(a.Vehicles, b.Vehicles) && near(a.Tardiness, b.Tardiness)
}

// jobRecord is one svc-submit job as its client measured it.
type jobRecord struct {
	submit, firstPoint, total time.Duration
	evals                     int
	hv                        float64
	events                    int
	lags                      []float64 // event receive time − event ts, ms

	// Traced runs only, from the job's status and trace.
	queue, startToFirst, run time.Duration
	iters                    int64
	spans                    []otlpSpan
}

// jobSpec is the i-th svc-submit job: its own generated R1 instance,
// sequential TSMO on granular neighborhoods.
func (b *bench) jobSpec(i int) service.JobSpec {
	return service.JobSpec{
		Instance:       service.InstanceSpec{Class: "R1", N: b.sc.N, Seed: instSeed(b.seed, wSubmit, i)},
		Algorithm:      "sequential",
		Seed:           uint64(i + 2),
		MaxEvaluations: b.sc.JobEvals,
		GranularK:      granularK,
	}
}

// job submits one job, follows its events to the end, fetches and checks
// its result.
func (b *bench) job(ctx context.Context, d *daemon, parent *trace.Span, spec service.JobSpec) (jobRecord, error) {
	var rec jobRecord
	body, err := json.Marshal(spec)
	if err != nil {
		return rec, err
	}
	sp := b.tr.Start(parent, "job")
	defer sp.End()
	t0 := time.Now()
	var sub service.SubmitResponse
	if err := d.call(ctx, http.MethodPost, "/v1/jobs", body, &sub, b.tr.Traceparent(sp)); err != nil {
		return rec, err
	}
	rec.submit = time.Since(t0)
	var firstTS time.Time
	terminal := ""
	err = d.follow(ctx, sub.ID, func(ev event) {
		rec.events++
		rec.lags = append(rec.lags, ms(ev.recv.Sub(ev.TS)))
		switch {
		case ev.Name == "archive_accept" && rec.firstPoint == 0:
			rec.firstPoint, firstTS = ev.recv.Sub(t0), ev.TS
		case terminalEvent(ev.Name):
			terminal, rec.total = ev.Name, ev.recv.Sub(t0)
		}
	})
	switch {
	case err != nil:
		return rec, err
	case terminal != string(service.StateDone):
		return rec, fmt.Errorf("job %s ended %q", sub.ID, terminal)
	case rec.firstPoint == 0:
		return rec, fmt.Errorf("job %s finished without an archive_accept event", sub.ID)
	}
	var ff resultio.FrontFile
	if err := d.call(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil, &ff, ""); err != nil {
		return rec, err
	}
	in, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: spec.Instance.N, Seed: spec.Instance.Seed})
	if err != nil {
		return rec, err
	}
	if err := checkResult(in, &ff); err != nil {
		return rec, fmt.Errorf("job %s: %w", sub.ID, err)
	}
	rec.evals = ff.Evaluations
	rec.hv = frontHV(in.N(), ff.Objectives(false))
	if !b.traced {
		return rec, nil
	}
	var st service.Status
	if err := d.call(ctx, http.MethodGet, "/v1/jobs/"+sub.ID, nil, &st, ""); err != nil {
		return rec, err
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		return rec, fmt.Errorf("job %s status lacks start or finish times", sub.ID)
	}
	rec.queue = st.StartedAt.Sub(st.SubmittedAt)
	rec.startToFirst = firstTS.Sub(*st.StartedAt)
	rec.run = st.FinishedAt.Sub(*st.StartedAt)
	rec.iters = st.Iterations
	rec.spans, err = d.jobSpans(ctx, sub.ID)
	return rec, err
}

// openWarm is one daemon set-up: open it and push one job through.
func (b *bench) openWarm(ctx context.Context, parent *trace.Span) (*daemon, error) {
	d, err := openDaemon(b.scratch())
	if err != nil {
		return nil, err
	}
	if _, err := b.job(ctx, d, parent, b.jobSpec(-1)); err != nil {
		d.close()
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return d, nil
}

// submitSample is one svc-submit load.
type submitSample struct {
	jobs     []jobRecord
	wall     time.Duration
	rt       runtimeTotals
	counters map[string]float64 // daemon solver counters over the load (traced)
}

// submitLoad runs the svc-submit closed loop: each client submits a job,
// follows it to done, checks its result, and submits the next, until the
// box has passed and at least min jobs were started.
func (b *bench) submitLoad(ctx context.Context, d *daemon, parent *trace.Span, box time.Duration, min int) (*submitSample, error) {
	s := &submitSample{}
	var before map[string]float64
	if b.traced {
		var err error
		if before, err = d.counters(ctx); err != nil {
			return nil, err
		}
	}
	var (
		mu   sync.Mutex
		next int
		wg   sync.WaitGroup
	)
	rt0 := readRuntime()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= min && time.Since(start) >= box {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				rec, err := b.job(ctx, d, parent, b.jobSpec(i))
				mu.Lock()
				b.attempted++
				if err != nil {
					b.fail("job %d: %v", i, err)
				} else {
					s.jobs = append(s.jobs, rec)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.wall = time.Since(start)
	s.rt = readRuntime().sub(rt0)
	if len(s.jobs) == 0 {
		return nil, errors.New("no job completed")
	}
	if b.traced {
		after, err := d.counters(ctx)
		if err != nil {
			return nil, err
		}
		s.counters = diffCounters(after, before)
	}
	return s, nil
}

// runSubmitWorkload is svc-submit-400.
func (b *bench) runSubmitWorkload(ctx context.Context) error {
	var d *daemon
	setups := make([]float64, b.sc.SetupReps)
	for i := range setups {
		if d != nil {
			d.close()
		}
		dur, err := b.timed(b.root, "setup", func() error {
			var err error
			d, err = b.openWarm(ctx, b.root)
			return err
		})
		if err != nil {
			return err
		}
		setups[i] = dur.Seconds()
	}
	defer d.close()
	load := b.tr.Start(b.root, "load")
	heap := startHeapSampler()
	s, err := b.submitLoad(ctx, d, load, b.sc.Box, b.sc.MinJobs)
	peak := heap.peakMB()
	load.End()
	if err != nil {
		return err
	}
	var first, total, hvs []float64
	evals, iters := 0, int64(0)
	var run time.Duration
	for _, j := range s.jobs {
		first = append(first, ms(j.firstPoint))
		total = append(total, ms(j.total))
		hvs = append(hvs, j.hv)
		evals += j.evals
		iters += j.iters
		run += j.run
	}
	b.e2e.add("setup_s", median(setups), "s")
	b.e2e.add("evals_per_s", float64(evals)/s.wall.Seconds(), "1/s")
	b.addResponse(first)
	b.e2e.add("peak_heap_mb", peak, "MB")
	b.hv = mean(hvs)
	b.info.add("jobs", float64(len(s.jobs)), "count")
	b.info.add("jobs_per_min", float64(len(s.jobs))/s.wall.Minutes(), "1/min")
	b.info.add("job_ms_p50", median(total), "ms")
	b.info.add("front_hv", b.hv, "ratio")
	if b.traced {
		b.submit = s
		b.search = &searchSample{counters: s.counters, wall: run, rt: s.rt}
	}
	return nil
}

// dynJob is the svc-mutate job: an unbounded dynamic search, and the
// goroutine that follows its event stream and hands on its "mutations"
// and terminal events. The goroutine alone writes err, count and lags;
// read them once events is closed.
type dynJob struct {
	id     string
	base   *vrptw.Instance
	events chan event
	cancel context.CancelFunc

	err   error
	count int       // events received
	lags  []float64 // event receive time − event ts, ms
}

// startDyn submits the dynamic job, opens its event stream and waits for
// the job's first checkpoint barrier.
func (b *bench) startDyn(ctx context.Context, d *daemon, parent *trace.Span) (*dynJob, error) {
	spec := service.JobSpec{
		Instance:       service.InstanceSpec{Class: "R1", N: b.sc.N, Seed: instSeed(b.seed, wMutate, 0)},
		Algorithm:      "sequential",
		Seed:           b.seed,
		MaxEvaluations: math.MaxInt32,
		GranularK:      granularK,
	}
	base, err := vrptw.Generate(vrptw.GenConfig{Class: vrptw.R1, N: spec.Instance.N, Seed: spec.Instance.Seed})
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	sp := b.tr.Start(parent, "dynamic_job")
	defer sp.End()
	var sub service.SubmitResponse
	if err := d.call(ctx, http.MethodPost, "/v1/jobs", body, &sub, b.tr.Traceparent(sp)); err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	dj := &dynJob{id: sub.ID, base: base, events: make(chan event), cancel: cancel}
	go func() {
		defer close(dj.events)
		dj.err = d.follow(sctx, sub.ID, func(ev event) {
			dj.count++
			dj.lags = append(dj.lags, ms(ev.recv.Sub(ev.TS)))
			if ev.Name == "mutations" || terminalEvent(ev.Name) {
				select {
				case dj.events <- ev:
				case <-sctx.Done():
				}
			}
		})
	}()
	deadline := time.Now().Add(time.Minute)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodHead, d.base+"/v1/jobs/"+sub.ID+"/checkpoint", nil)
		if err != nil {
			dj.close()
			return nil, err
		}
		resp, err := d.hc.Do(req)
		if err != nil {
			dj.close()
			return nil, err
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return dj, nil
		}
		if resp.StatusCode != http.StatusNotFound || time.Now().After(deadline) {
			dj.close()
			return nil, fmt.Errorf("waiting for the first barrier of %s: %s", sub.ID, resp.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close abandons the stream and waits for its goroutine to end. Calling it
// again is harmless.
func (dj *dynJob) close() {
	dj.cancel()
	for range dj.events {
	}
}

// await returns the "mutations" event of the given epoch.
func (dj *dynJob) await(epoch int, timeout time.Duration) (event, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		select {
		case ev, ok := <-dj.events:
			switch {
			case !ok:
				return ev, fmt.Errorf("event stream of %s ended: %v", dj.id, dj.err)
			case terminalEvent(ev.Name):
				return ev, fmt.Errorf("job %s turned %s while mutating", dj.id, ev.Name)
			case int(fieldFloat(ev, "epoch")) == epoch:
				return ev, nil
			}
		case <-timer.C:
			return event{}, fmt.Errorf("no mutations event for epoch %d of %s within %v", epoch, dj.id, timeout)
		}
	}
}

// endDyn cancels the dynamic job, waits for its terminal event, and checks
// its final result against the base instance projected through every
// accepted mutation. It returns the result's front_hv and, in a traced run,
// attaches the job's events and spans to s.
func (b *bench) endDyn(ctx context.Context, d *daemon, dj *dynJob, s *mutateSample) (float64, error) {
	defer dj.close()
	path := "/v1/jobs/" + dj.id
	if err := d.call(ctx, http.MethodDelete, path, nil, nil, ""); err != nil {
		return 0, err
	}
	for ev := range dj.events {
		if terminalEvent(ev.Name) {
			break
		}
	}
	var ff resultio.FrontFile
	if err := d.call(ctx, http.MethodGet, path+"/result", nil, &ff, ""); err != nil {
		return 0, err
	}
	hv := 0.0
	b.attempted++
	in, err := dynamic.Project(dj.base, s.log)
	if err == nil {
		err = checkResult(in, &ff)
	}
	if err != nil {
		b.fail("result of the mutated job %s: %v", dj.id, err)
	} else {
		hv = frontHV(in.N(), ff.Objectives(false))
	}
	if !b.traced {
		return hv, nil
	}
	dj.close()
	s.events, s.lags = dj.count, dj.lags
	s.spans, err = d.jobSpans(ctx, dj.id)
	return hv, err
}

// mutator draws the svc-mutate cycle — cancel a customer, add one, shift a
// window, update a demand — each valid on the instance it projects to.
type mutator struct {
	r   *rng.Rand
	cur *vrptw.Instance
	i   int
}

// next returns the next mutation of the cycle and the instance it derives.
func (m *mutator) next() (dynamic.Mutation, *vrptw.Instance, error) {
	for try := 0; try < 100; try++ {
		c := 1 + m.r.Intn(m.cur.N())
		site := m.cur.Sites[c]
		mut := dynamic.Mutation{Version: dynamic.Version, Customer: c}
		switch m.i % 4 {
		case 0:
			mut.Op = dynamic.CancelCustomer
		case 1:
			mut.Op, mut.Customer = dynamic.AddCustomer, 0
			site.ID = 0
			site.X += m.r.Float64()*2 - 1
			site.Y += m.r.Float64()*2 - 1
			mut.Site = &site
		case 2:
			// Widened, so the job's current routes stay on time: the
			// load measures the mutation path, not a search that can
			// never get feasible again.
			widen := m.r.Float64() * 10
			mut.Op = dynamic.ShiftWindow
			mut.Ready = math.Max(0, site.Ready-widen)
			mut.Due = site.Due + widen
		default:
			mut.Op = dynamic.UpdateDemand
			mut.Demand = math.Min(m.cur.Capacity, 1+m.r.Float64()*2*site.Demand)
		}
		next, err := dynamic.Project(m.cur, []dynamic.Mutation{mut})
		if err == nil {
			m.i++
			return mut, next, nil
		}
	}
	return dynamic.Mutation{}, nil, fmt.Errorf("no valid %d-th mutation in 100 draws", m.i)
}

// mutateSample is one svc-mutate load.
type mutateSample struct {
	resp, patch, barrierWait []float64 // ms
	log                      []dynamic.Mutation
	wall                     time.Duration
	evals, iters             int64
	rt                       runtimeTotals

	// Traced runs only: the job's solver counters over the load, and its
	// events and spans.
	counters map[string]float64
	events   int
	lags     []float64
	spans    []otlpSpan
}

// mutateLoad runs the svc-mutate closed loop on a running dynamic job: each
// PATCH carries one mutation and the next is sent once the previous one's
// "mutations" event arrived, until the box has passed and at least min
// were applied.
func (b *bench) mutateLoad(ctx context.Context, d *daemon, dj *dynJob, parent *trace.Span, box time.Duration, min int) (*mutateSample, error) {
	s := &mutateSample{}
	m := &mutator{r: rng.New(b.seed), cur: dj.base}
	path := "/v1/jobs/" + dj.id
	var st0, st1 service.Status
	if err := d.call(ctx, http.MethodGet, path, nil, &st0, ""); err != nil {
		return nil, err
	}
	var before map[string]float64
	if b.traced {
		var err error
		if before, err = d.counters(ctx); err != nil {
			return nil, err
		}
	}
	rt0 := readRuntime()
	start := time.Now()
	for i := 0; i < min || time.Since(start) < box; i++ {
		mut, next, err := m.next()
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(service.MutateRequest{Mutation: mut})
		if err != nil {
			return nil, err
		}
		b.attempted++
		sp := b.tr.Start(parent, "mutation")
		t0 := time.Now()
		var mr service.MutateResponse
		err = d.call(ctx, http.MethodPatch, path+"/instance", body, &mr, "")
		acked := time.Now()
		if err != nil {
			sp.End()
			b.fail("mutation %d: %v", i, err)
			continue
		}
		s.log = append(s.log, mut)
		m.cur = next
		ev, err := dj.await(mr.Epoch, time.Minute)
		sp.End()
		if err != nil {
			return nil, err
		}
		if fieldFloat(ev, "applied") != 1 || fieldFloat(ev, "rejected") != 0 {
			b.fail("mutation epoch %d applied %v, rejected %v", mr.Epoch, ev.Fields["applied"], ev.Fields["rejected"])
		}
		splice := time.Duration(fieldFloat(ev, "splice_seconds") * float64(time.Second))
		s.resp = append(s.resp, ms(ev.recv.Sub(t0)))
		s.patch = append(s.patch, ms(acked.Sub(t0)))
		s.barrierWait = append(s.barrierWait, ms(ev.TS.Add(-splice).Sub(acked)))
	}
	s.wall = time.Since(start)
	s.rt = readRuntime().sub(rt0)
	if err := d.call(ctx, http.MethodGet, path, nil, &st1, ""); err != nil {
		return nil, err
	}
	s.evals, s.iters = st1.Evaluations-st0.Evaluations, st1.Iterations-st0.Iterations
	b.attempted++
	if st1.MutationsApplied != len(s.log) || st1.MutationsRejected != 0 {
		b.fail("job %s reports %d mutations applied and %d rejected; %d were accepted",
			dj.id, st1.MutationsApplied, st1.MutationsRejected, len(s.log))
	}
	if b.traced {
		after, err := d.counters(ctx)
		if err != nil {
			return nil, err
		}
		s.counters = diffCounters(after, before)
	}
	return s, nil
}

// runMutateWorkload is svc-mutate-400.
func (b *bench) runMutateWorkload(ctx context.Context) error {
	var (
		d  *daemon
		dj *dynJob
	)
	discard := func() {
		if dj != nil {
			dj.close()
		}
		if d != nil {
			d.close()
		}
	}
	setups := make([]float64, b.sc.SetupReps)
	for i := range setups {
		discard()
		dur, err := b.timed(b.root, "setup", func() error {
			var err error
			if d, err = b.openWarm(ctx, b.root); err != nil {
				return err
			}
			dj, err = b.startDyn(ctx, d, b.root)
			return err
		})
		if err != nil {
			dj = nil
			discard()
			return err
		}
		setups[i] = dur.Seconds()
	}
	defer d.close()
	load := b.tr.Start(b.root, "load")
	heap := startHeapSampler()
	s, err := b.mutateLoad(ctx, d, dj, load, b.sc.Box, b.sc.MinMutations)
	peak := heap.peakMB()
	load.End()
	if err != nil {
		dj.close()
		return err
	}
	if b.hv, err = b.endDyn(ctx, d, dj, s); err != nil {
		return err
	}
	b.e2e.add("setup_s", median(setups), "s")
	b.e2e.add("evals_per_s", float64(s.evals)/s.wall.Seconds(), "1/s")
	b.addResponse(s.resp)
	b.e2e.add("peak_heap_mb", peak, "MB")
	b.info.add("mutations", float64(len(s.resp)), "count")
	b.info.add("front_hv", b.hv, "ratio")
	if b.traced {
		b.mutate = s
		b.search = &searchSample{counters: s.counters, wall: s.wall, rt: s.rt}
	}
	return nil
}
