package service

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/sse"
	"repro/internal/telemetry"
)

// TestEventWindowKeepsNewest appends past maxEvents to a queued job's
// event log, cancels the job and reads /events from the start and from a
// cursor that fell off the window: both deliver the newest maxEvents
// events with their original sequence numbers, ending at the terminal one.
func TestEventWindowKeepsNewest(t *testing.T) {
	svc, srv := e2eServer(t, Config{Workers: 1, MaxEvaluations: -1})
	release := blockWorker(t, srv.URL)
	defer release()
	j, err := svc.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	const extra = 1000
	for n := 0; n < maxEvents+extra; n++ {
		j.emit(telemetry.Record{Kind: "tick", Values: map[string]any{"n": n}})
	}
	if st := j.Cancel(); st != StateCanceled {
		t.Fatalf("cancel left the job %s", st)
	}
	last := 1 + maxEvents + extra + 1 // queued, the ticks, canceled

	for _, cursor := range []string{"", "5"} {
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/jobs/"+j.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		if cursor != "" {
			req.Header.Set("Last-Event-ID", cursor)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var evs []Event
		err = sse.Read(resp.Body, func(f sse.Frame) bool {
			var ev Event
			if err := json.Unmarshal(f.Data, &ev); err != nil || f.ID != ev.Seq {
				t.Fatalf("frame %d: %v, data seq %d", f.ID, err, ev.Seq)
			}
			evs = append(evs, ev)
			return true
		})
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != maxEvents {
			t.Fatalf("cursor %q: %d events delivered, want %d", cursor, len(evs), maxEvents)
		}
		for k, ev := range evs {
			seq := last - maxEvents + 1 + k
			if ev.Seq != seq {
				t.Fatalf("cursor %q: event %d has seq %d, want %d", cursor, k, ev.Seq, seq)
			}
			if ev.Seq < last && (ev.Name != "tick" || ev.Fields["n"] != float64(seq-2)) {
				t.Fatalf("cursor %q: seq %d is %s %v, want tick n=%d", cursor, seq, ev.Name, ev.Fields, seq-2)
			}
		}
		if end := evs[len(evs)-1]; end.Name != string(StateCanceled) {
			t.Errorf("cursor %q: stream ends with %s, want canceled", cursor, end.Name)
		}
	}
}
