package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/vrptw"
)

// serve sends one request straight to the service's handler and returns
// the response status and the bytes the process allocated meanwhile.
func serve(t *testing.T, svc *Service, method, path string, body any) (status int, allocated uint64) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(data))
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	svc.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	return rec.Code, after.TotalAlloc - before.TotalAlloc
}

// solomonText renders a Solomon-format instance of n customers on a
// line, every window the whole horizon.
func solomonText(n int) string {
	var b strings.Builder
	b.WriteString("LINE\n\nVEHICLE\nNUMBER CAPACITY\n50 1000000\n\nCUSTOMER\nCUST NO. XCOORD. YCOORD. DEMAND READY DUE SERVICE\n")
	b.WriteString("0 0 0 0 0 100000 0\n")
	for c := 1; c <= n; c++ {
		fmt.Fprintf(&b, "%d %d 0 1 0 100000 1\n", c, c)
	}
	return b.String()
}

// TestSubmitOversizeRefusedBeforeBuild posts instances past the default
// 1000-customer limit, one generated and one inline, and bounds what the
// refusal allocates: an instance of 3000 customers has a 72 MB distance
// matrix, so a 400 that stays under 4 MB was given before the instance
// was built.
func TestSubmitOversizeRefusedBeforeBuild(t *testing.T) {
	svc := testService(t, Config{Workers: 1})
	for _, tc := range []struct {
		name string
		spec JobSpec
	}{
		{"generator", JobSpec{Instance: InstanceSpec{Class: "R1", N: 3000, Seed: 1}}},
		{"solomon", JobSpec{Instance: InstanceSpec{Solomon: solomonText(3000)}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, allocated := serve(t, svc, http.MethodPost, "/v1/jobs", tc.spec)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", status)
			}
			if allocated > 4<<20 {
				t.Errorf("refusing the spec allocated %d bytes; the instance was built before the size check", allocated)
			}
		})
	}
	if n := len(svc.Jobs()); n != 0 {
		t.Fatalf("%d jobs after refusals, want 0", n)
	}
	// At the limit both forms are accepted.
	for _, spec := range []JobSpec{
		{Instance: InstanceSpec{Class: "R1", N: 1000, Seed: 1}, MaxEvaluations: 1},
		{Instance: InstanceSpec{Solomon: solomonText(1000)}, MaxEvaluations: 1},
	} {
		j, err := svc.Submit(spec)
		if err != nil {
			t.Fatalf("submission at the limit refused: %v", err)
		}
		j.Cancel()
	}
}

// TestMutateGrowthLimit PATCHes a queued 40-customer job on a service
// limited to 50 customers: a batch of 100 adds is refused with 400 and
// leaves the mutation log empty, ten adds fill the job to the limit, one
// more add is refused, and a cancel followed by an add stays at it.
func TestMutateGrowthLimit(t *testing.T) {
	svc := testService(t, Config{Workers: 1, MaxCustomers: 50, MaxEvaluations: -1, CheckpointEvery: 3})
	blocker, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer blocker.Cancel()
	waitState(t, blocker, StateRunning)
	j, err := svc.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Cancel()
	add := func(n int) MutateRequest {
		muts := make([]dynamic.Mutation, n)
		for i := range muts {
			muts[i] = dynamic.Mutation{Version: dynamic.Version, Op: dynamic.AddCustomer,
				Site: &vrptw.Site{X: float64(i), Y: 1, Demand: 1, Ready: 0, Due: 200, Service: 1}}
		}
		return MutateRequest{Mutations: muts}
	}
	path := "/v1/jobs/" + j.ID + "/instance"
	if status, _ := serve(t, svc, http.MethodPatch, path, add(100)); status != http.StatusBadRequest {
		t.Fatalf("100 adds onto 40 customers under a limit of 50: status %d, want 400", status)
	}
	if n := len(j.dyn.Log()); n != 0 {
		t.Fatalf("refused batch left %d mutations in the log", n)
	}
	if status, _ := serve(t, svc, http.MethodPatch, path, add(10)); status != http.StatusOK {
		t.Fatalf("10 adds onto 40 customers under a limit of 50: status %d, want 200", status)
	}
	if status, _ := serve(t, svc, http.MethodPatch, path, add(1)); status != http.StatusBadRequest {
		t.Fatalf("an add onto 50 customers under a limit of 50: status %d, want 400", status)
	}
	swap := add(1)
	swap.Mutations = append([]dynamic.Mutation{cancelMut(3)}, swap.Mutations...)
	if status, _ := serve(t, svc, http.MethodPatch, path, swap); status != http.StatusOK {
		t.Fatalf("a cancel then an add at the limit: status %d, want 200", status)
	}
	if n := len(j.dyn.Log()); n != 12 {
		t.Fatalf("mutation log holds %d mutations, want 12", n)
	}
}
