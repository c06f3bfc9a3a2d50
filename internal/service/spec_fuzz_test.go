package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/strictjson"
	"repro/internal/tenant"
	"repro/internal/vrptw"
)

// countingHandler counts the records a slog.Logger emits.
type countingHandler struct{ n atomic.Int64 }

func (h *countingHandler) Enabled(context.Context, slog.Level) bool  { return true }
func (h *countingHandler) Handle(context.Context, slog.Record) error { h.n.Add(1); return nil }
func (h *countingHandler) WithAttrs([]slog.Attr) slog.Handler        { return h }
func (h *countingHandler) WithGroup(string) slog.Handler             { return h }

// fuzzService is a durable service limited to 20 customers whose one
// worker is held by a job that neither finishes nor checkpoints while the
// fuzzer runs: accepted jobs stay queued, and nothing but the call under
// test writes the journal or the log.
type fuzzService struct {
	svc  *Service
	logs *countingHandler
	dir  string
}

func newFuzzService(f *testing.F) *fuzzService {
	fs := &fuzzService{logs: &countingHandler{}, dir: f.TempDir()}
	svc, err := Open(Config{Workers: 1, DataDir: fs.dir, MaxCustomers: 20, MaxEvaluations: -1, Logger: slog.New(fs.logs)})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(svc.Close)
	fs.svc = svc
	blocker := longSpec()
	blocker.Instance.N = 15
	blocker.MaxSeconds = 1e9 // an in-run time budget: no checkpoint barriers
	j, err := svc.Submit(blocker)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { j.Cancel() })
	for j.State() != StateRunning {
		if j.State().Terminal() {
			f.Fatalf("blocker ended in %s", j.State())
		}
		time.Sleep(time.Millisecond)
	}
	return fs
}

// traces is what a refused request must leave unchanged: the jobs, the
// journal's length and the number of log records.
type traces struct {
	jobs    int
	journal int64
	logs    int64
}

func (fs *fuzzService) traces(t *testing.T) traces {
	t.Helper()
	st, err := os.Stat(filepath.Join(fs.dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return traces{jobs: len(fs.svc.Jobs()), journal: st.Size(), logs: fs.logs.n.Load()}
}

// FuzzSubmitSpec feeds POST /v1/jobs bodies through the handler's decoder
// and SubmitAs. The contract: nothing panics; an accepted job's spec —
// the one the journal records and recovery replays — reads back through
// JSON as itself; a refused one leaves no job, journal record or log
// record behind. The service's 20-customer limit keeps each spec's
// instance small: it is checked before the instance is built.
func FuzzSubmitSpec(f *testing.F) {
	for _, body := range []string{
		`{"instance":{"class":"R1","n":20,"seed":1}}`,
		`{"instance":{"class":"R1","n":20,"seed":1}} {"not":"a spec"} garbage`,
		`{"instance":{"class":"R1","n":20,"seed":1},"eval_workers":2}`,
		`{"instance":`,
		`{}`,
		`{"instance":{"class":"R1","n":3000}}`,
		`{"instance":{"class":"RC2","n":12,"seed":9},"algorithm":"asynchronous","processors":3,"seed":7,"max_evaluations":60000,"granular_k":8,"sample_every":2000}`,
		`{"instance":{"class":"C1","n":15,"seed":2},"algorithm":"collaborative","processors":2,"backend":"goroutine","idempotency_key":"retry-me","priority":3,"deadline_seconds":0.5}`,
		`{"instance":{"class":"R2","n":10,"seed":4},"max_seconds":2,"wall_seconds":1,"neighborhood":50,"tenure":7,"archive":20,"nondom":5,"restart_iters":100,"islands":2,"traceparent":"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"}`,
		`{"instance":{"solomon":"TINY\n\nVEHICLE\nNUMBER CAPACITY\n2 100\n\nCUSTOMER\nCUST NO. XCOORD. YCOORD. DEMAND READY DUE SERVICE\n0 0 0 0 0 100 0\n1 3 4 10 0 50 5\n2 6 8 10 10 60 5\n"}}`,
		`{"instance":{"class":"R1","n":10,"solomon":"x"}}`,
		`{"instance":{"class":"Z9","n":10}}`,
		`{"instance":{"class":"R1","n":10},"resume":{"barrier":1,"algorithm":"sequential","processors":1,"every":1,"recv_timeout":-1,"parts":[{}]}}`,
	} {
		f.Add([]byte(body))
	}
	fs := newFuzzService(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var spec JobSpec
		if err := strictjson.Decode(bytes.NewReader(body), &spec); err != nil {
			return
		}
		before := fs.traces(t)
		j, err := fs.svc.SubmitAs(tenant.Anonymous, spec)
		if err != nil {
			if after := fs.traces(t); after != before {
				t.Fatalf("refused spec (%v) left traces: %+v, before %+v", err, after, before)
			}
			return
		}
		defer j.Cancel()
		data, err := json.Marshal(j.Spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		var back JobSpec
		if err := strictjson.Decode(bytes.NewReader(data), &back); err != nil {
			t.Fatalf("accepted spec does not read back: %v\n%s", err, data)
		}
		got, want := canonicalRecord(journalRecord{Spec: &back}), canonicalRecord(journalRecord{Spec: &j.Spec})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("accepted spec reads back as %+v, want %+v", *got.Spec, *want.Spec)
		}
	})
}

// FuzzMutationBatch feeds PATCH /v1/jobs/{id}/instance bodies through the
// handler's decoder and MutateAs onto one queued dynamic job. The
// contract: nothing panics; an accepted batch — what the journal's mutate
// record holds — reads back through JSON as itself; a refused one leaves
// the job's mutation log, the journal and the log as they were. The
// service's 20-customer limit bounds how far adds can grow the job.
func FuzzMutationBatch(f *testing.F) {
	site := vrptw.Site{X: 10, Y: 20, Demand: 5, Ready: 0, Due: 200, Service: 10}
	for _, body := range []any{
		MutateRequest{Mutations: []dynamic.Mutation{cancelMut(7),
			{Version: dynamic.Version, Op: dynamic.UpdateDemand, Customer: 9, Demand: 5}}},
		map[string]any{"epoch": 3, "op": "cancel_customer", "customer": 3},
		map[string]any{"op": "cancel_customer", "customer": 2, "mutations": []dynamic.Mutation{cancelMut(4)}},
		map[string]any{},
		MutateRequest{Mutations: []dynamic.Mutation{cancelMut(0)}},
		map[string]any{"op": "teleport_customer", "customer": 2},
		map[string]any{"op": "cancel_customer", "customer": 2, "bogus": true},
		MutateRequest{Epoch: 2, Mutations: []dynamic.Mutation{{Version: dynamic.Version, Op: dynamic.AddCustomer, Site: &site},
			{Version: dynamic.Version, Op: dynamic.ShiftWindow, Customer: 5, Ready: 30, Due: 90}}},
		MutateRequest{Mutations: []dynamic.Mutation{{Version: 2, Op: dynamic.CancelCustomer, Customer: 1}}},
	} {
		data, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"op":"cancel_customer","customer":2} {"not":"a mutation"}`))
	fs := newFuzzService(f)
	spec := longSpec()
	spec.Instance.N = 15
	j, err := fs.svc.Submit(spec)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { j.Cancel() })
	if j.dyn == nil {
		f.Fatal("the queued job takes no mutations")
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, muts, err := decodeMutateRequest(bytes.NewReader(body))
		if err != nil {
			return
		}
		log, before := j.dyn.Log(), fs.traces(t)
		if _, err := fs.svc.MutateAs(tenant.Anonymous, j.ID, req.Epoch, muts); err != nil {
			if after := fs.traces(t); after != before {
				t.Fatalf("refused batch (%v) left traces: %+v, before %+v", err, after, before)
			}
			if now := j.dyn.Log(); !reflect.DeepEqual(now, log) {
				t.Fatalf("refused batch (%v) changed the mutation log from %d to %d entries", err, len(log), len(now))
			}
			return
		}
		data, err := json.Marshal(muts)
		if err != nil {
			t.Fatalf("accepted batch does not marshal: %v", err)
		}
		var back []dynamic.Mutation
		if err := strictjson.Decode(bytes.NewReader(data), &back); err != nil {
			t.Fatalf("accepted batch does not read back: %v\n%s", err, data)
		}
		if !reflect.DeepEqual(back, muts) {
			t.Fatalf("accepted batch reads back as %+v, want %+v", back, muts)
		}
	})
}
