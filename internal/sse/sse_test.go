package sse

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// readAll reads every frame of a stream and the error that ended it.
func readAll(stream []byte) ([]Frame, error) {
	var frames []Frame
	err := Read(bytes.NewReader(stream), func(f Frame) bool {
		frames = append(frames, f)
		return true
	})
	return frames, err
}

func write(t *testing.T, frames ...Frame) []byte {
	t.Helper()
	var b bytes.Buffer
	for _, f := range frames {
		if err := Write(&b, f); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// TestWriteBytes pins the two frame shapes the service writes: a numbered
// event and the share feed's final done frame.
func TestWriteBytes(t *testing.T) {
	got := string(write(t, Frame{ID: 12, Event: "archive_accept", Data: []byte(`{"seq":12}`)},
		Frame{Event: "done", Data: []byte("{}")}))
	if want := "id: 12\nevent: archive_accept\ndata: {\"seq\":12}\n\nevent: done\ndata: {}\n\n"; got != want {
		t.Errorf("Write = %q, want %q", got, want)
	}
	if err := Write(io.Discard, Frame{Event: "x", Data: []byte("a\nb")}); err == nil {
		t.Error("Write accepted data with a line break")
	}
}

// TestReaderSkipsMalformed reads a stream mixing good frames with
// keep-alives, a frame with a bad id, a frame without data and a frame cut
// off by the end of the stream: only the good frames come back, whole. A
// line longer than maxLine ends the stream with an error.
func TestReaderSkipsMalformed(t *testing.T) {
	defer func(n int) { maxLine = n }(maxLine)
	maxLine = 64
	stream := ": keep-alive\n\n" +
		"id: 1\nevent: share\ndata: {\"a\":1}\n\n" +
		"id: x\nevent: share\ndata: {}\n\n" +
		"id: 3\r\nevent: share\r\ndata: [1,\r\ndata: 2]\r\n\r\n" +
		"id: 4\nevent: share\n\n" +
		"retry: 10\nevent: done\ndata: {}\n\n" +
		"id: 5\nevent: share\ndata: {}\n"
	want := []Frame{
		{ID: 1, Event: "share", Data: []byte(`{"a":1}`)},
		{ID: 3, Event: "share", Data: []byte("[1,\n2]")},
		{Event: "done", Data: []byte("{}")},
	}
	if got, err := readAll([]byte(stream)); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("frames = %q (%v), want %q", got, err, want)
	}
	long := "id: 1\ndata: {}\n\nid: 2\ndata: " + strings.Repeat("y", 100) + "\n\nid: 3\ndata: {}\n\n"
	if got, err := readAll([]byte(long)); len(got) != 1 || got[0].ID != 1 || !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("over-long line: frames %q, error %v; want frame 1 then %v", got, err, bufio.ErrTooLong)
	}
}

// FuzzReader feeds the reader arbitrary streams and frames written by
// Write. It must never panic and never fail but on an over-long line;
// every frame it returns is one Write reproduces exactly; a frame written
// by Write reads back with the same id, event and data, also after a
// malformed frame, which is skipped whole, and before an over-long line,
// which ends the stream; and a written frame cut off before its blank line
// is never returned.
func FuzzReader(f *testing.F) {
	defer func(n int) { maxLine = n }(maxLine)
	maxLine = 1 << 10
	pinned, err := os.ReadFile("../service/testdata/event_stream_pin.golden")
	if err != nil {
		f.Fatal(err)
	}
	for _, section := range strings.Split(string(pinned), "== ")[1:] {
		_, stream, _ := strings.Cut(section, "\n")
		f.Add([]byte(stream), 1, "share", []byte("{}"))
	}
	f.Add([]byte(": keep-alive\n\n: keep-alive\n\n"), 0, "done", []byte("{}"))
	f.Add([]byte("id: 1\nevent: share\ndata: "+strings.Repeat("z", 2<<10)+"\n\nid: 2\ndata: {}\n\n"), 7, "", []byte(nil))
	f.Add([]byte("id: 1\nevent: queued\ndata: {\"seq\":1}\n"), 12, "archive_accept", []byte(`{"seq":12}`))
	f.Fuzz(func(t *testing.T, stream []byte, id int, event string, data []byte) {
		frames, err := readAll(stream)
		if err != nil && !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("reading a stream in memory: %v", err)
		}
		for _, fr := range frames {
			var b bytes.Buffer
			if fr.ID < 0 || Write(&b, fr) != nil || !fits(fr) {
				continue // joined data lines, or lines Write makes too long
			}
			if got, err := readAll(b.Bytes()); err != nil || len(got) != 1 || !sameFrame(got[0], fr) {
				t.Fatalf("frame %q read back as %q (%v)", fr, got, err)
			}
		}

		want := Frame{ID: max(id, 0), Event: event, Data: data}
		var b bytes.Buffer
		if !fits(want) || Write(&b, want) != nil {
			return
		}
		framed := b.Bytes()
		junk := bytes.Map(func(r rune) rune {
			if r == '\n' || r == '\r' {
				return -1
			}
			return r
		}, stream)
		var s bytes.Buffer
		s.Write(framed)
		s.WriteString("id: -1\ndata: " + string(junk[:min(len(junk), maxLine/2)]) + "\n\n")
		s.Write(framed)
		s.WriteString("data: " + strings.Repeat("x", maxLine) + "\n\n")
		s.Write(framed)
		got, err := readAll(s.Bytes())
		if len(got) != 2 || !sameFrame(got[0], want) || !sameFrame(got[1], want) || !errors.Is(err, bufio.ErrTooLong) {
			t.Fatalf("frame %q around a malformed one and an over-long line read back as %q (%v)", want, got, err)
		}
		if got, _ := readAll(framed[:len(framed)-1]); len(got) != 0 {
			t.Fatalf("frame cut before its blank line read back as %q", got)
		}
	})
}

func sameFrame(a, b Frame) bool {
	return a.ID == b.ID && a.Event == b.Event && bytes.Equal(a.Data, b.Data)
}

// fits reports whether every line Write makes of f is shorter than maxLine.
func fits(f Frame) bool {
	return len("event: ")+len(f.Event) < maxLine && len("data: ")+len(f.Data) < maxLine
}
