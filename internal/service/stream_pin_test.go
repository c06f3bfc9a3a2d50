package service

import (
	"io"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// streamPinGolden holds the pinned bytes of eventStreamPinOutput.
const streamPinGolden = "testdata/event_stream_pin.golden"

// eventTS matches the one wall-clock field of an event's data line.
var eventTS = regexp.MustCompile(`"ts":"[^"]*"`)

// readStream reads a finished SSE stream to its end, with every event
// timestamp replaced by a placeholder.
func readStream(t *testing.T, url, lastEventID string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return eventTS.ReplaceAllString(string(body), `"ts":"<ts>"`)
}

// eventStreamPinOutput runs three fixed sim jobs one after another and
// returns the bytes their streams serve once they are done: the whole
// /events stream of a sequential job and of an asynchronous one (decision
// and restart frames), the asynchronous stream resumed with Last-Event-ID
// from its middle, and the whole /v1/shares stream of a single-shard share
// job, done frame included.
func eventStreamPinOutput(t *testing.T) string {
	t.Helper()
	_, srv := e2eServer(t, Config{Workers: 1})
	var out strings.Builder
	run := func(spec JobSpec) string {
		t.Helper()
		sub := decodeBody[SubmitResponse](t, postJob(t, srv.URL, spec))
		waitHTTPState(t, srv.URL, sub.ID, StateDone)
		return sub.ID
	}
	section := func(title, body string) {
		out.WriteString("== " + title + "\n" + body)
	}

	id := run(smallSpec())
	section("sequential events", readStream(t, srv.URL+"/v1/jobs/"+id+"/events", ""))

	async := smallSpec()
	async.Algorithm = "asynchronous"
	async.Processors = 3
	async.SampleEvery = 500
	async.Neighborhood = 20
	async.RestartIters = 3
	id = run(async)
	section("asynchronous events", readStream(t, srv.URL+"/v1/jobs/"+id+"/events", ""))
	st := getStatus(t, srv.URL, id)
	mid := st.LastEventSeq / 2
	section("asynchronous events after "+strconv.Itoa(mid), readStream(t, srv.URL+"/v1/jobs/"+id+"/events", strconv.Itoa(mid)))

	share := smallSpec()
	share.ShareGroup, share.ShareShards, share.ShareEvery = "pin", 1, 1
	run(share)
	section("shares pin/0", readStream(t, srv.URL+"/v1/shares/pin/0", ""))
	return out.String()
}

// TestEventStreamPinned pins every byte the job event stream and the share
// feed serve for fixed sim jobs, timestamps aside, so a change to how the
// streams are stored or written fails here. A failing line names the first
// byte that moved.
func TestEventStreamPinned(t *testing.T) {
	want, err := os.ReadFile(streamPinGolden)
	if err != nil {
		t.Fatal(err)
	}
	got := eventStreamPinOutput(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q", streamPinGolden, i+1, g, w)
		}
	}
}
