package telemetry

// The JSONL run report: one JSON object per line, each with a wall-clock
// "ts" and an "event" tag. Hot search loops never emit events — only
// iteration-scale occurrences (restarts, shares, periodic front-quality
// snapshots) and run boundaries do — so the writer favors simplicity over
// throughput: a mutex around a buffered encoder.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"
)

// Writer appends JSONL records to an underlying stream.
type Writer struct {
	mu     sync.Mutex
	bw     *bufio.Writer
	enc    *json.Encoder
	closer io.Closer
	err    error
}

// NewWriter wraps w in a JSONL writer. If w is also an io.Closer, Close
// closes it.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriter(w)
	out := &Writer{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		out.closer = c
	}
	return out
}

// OpenWriter creates (truncating) the JSONL report file at path.
func OpenWriter(path string) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("telemetry: creating report %s: %w", path, err)
	}
	return NewWriter(f), nil
}

// Emit appends one record. The first write error sticks and suppresses
// further writes; Close reports it.
func (w *Writer) Emit(record map[string]any) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return
	}
	w.err = w.enc.Encode(record)
}

// Close flushes and closes the underlying stream, returning the first
// error seen on any write.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.bw.Flush(); w.err == nil {
		w.err = err
	}
	if w.closer != nil {
		if err := w.closer.Close(); w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// Event records one event on every sink: its rendered fields as a JSONL
// line ({"ts": ..., "event": name, ...fields}) and as a Debug message on
// the slog stream, and the typed value on the in-process hook when one is
// installed. A nil receiver drops it.
func (t *Telemetry) Event(ev Event) {
	if t == nil {
		return
	}
	if t.log != nil || t.writer != nil {
		name, fields := ev.Render()
		if t.log != nil {
			attrs := make([]any, 0, 2*len(fields))
			for k, v := range fields {
				attrs = append(attrs, slog.Any(k, v))
			}
			t.log.Debug(name, attrs...)
		}
		if t.writer != nil {
			rec := make(map[string]any, len(fields)+2)
			for k, v := range fields {
				rec[k] = v
			}
			rec["ts"] = time.Now().UTC().Format(time.RFC3339Nano)
			rec["event"] = name
			t.writer.Emit(rec)
		}
	}
	if t.hook != nil {
		t.hook(ev)
	}
}

// Close flushes the JSONL sink, if any.
func (t *Telemetry) Close() error {
	if t == nil {
		return nil
	}
	return t.writer.Close()
}

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("telemetry: unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogger returns a text slog.Logger at the given level writing to w.
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}
