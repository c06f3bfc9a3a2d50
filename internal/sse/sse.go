// Package sse writes and reads the Server-Sent Events frames of the solver
// service's job event streams and cluster share feeds. A share feed comes
// from another node, so the reader treats its input as untrusted.
package sse

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strconv"
	"strings"
)

// Frame is one event: its id, the stream position a client resumes after
// (0 for none), its event name and its data.
type Frame struct {
	ID    int
	Event string
	Data  []byte
}

// Write writes f as "id: N\nevent: E\ndata: D\n\n", without the id line
// when the ID is 0 or less and without the event line when the name is
// empty. It refuses an event name or data with a line break; JSON data
// never has one.
func Write(w io.Writer, f Frame) error {
	if bytes.ContainsAny(f.Data, "\r\n") || strings.ContainsAny(f.Event, "\r\n") {
		return errors.New("sse: event name or data contains a line break")
	}
	b := make([]byte, 0, len(f.Data)+len(f.Event)+32)
	if f.ID > 0 {
		b = append(strconv.AppendInt(append(b, "id: "...), int64(f.ID), 10), '\n')
	}
	if f.Event != "" {
		b = append(append(append(b, "event: "...), f.Event...), '\n')
	}
	_, err := w.Write(append(append(append(b, "data: "...), f.Data...), "\n\n"...))
	return err
}

// maxLine bounds a line Read accepts. Variable so tests can shrink it.
var maxLine = 16 << 20

// Read calls fn with each complete frame of the stream r — the lines up to
// a blank line, several data lines joined by "\n" — until fn returns false.
// It skips comments (keep-alives), unknown fields, frames without data
// and, whole, a frame whose id is not a positive integer; a frame the
// stream cuts off before its blank line never reaches fn. Read returns the
// error that ended the stream, bufio.ErrTooLong at a line longer than
// maxLine, and nil at the end of the stream or when fn stopped it.
func Read(r io.Reader, fn func(Frame) bool) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine)
	var f Frame
	hasData, bad := false, false
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if hasData && !bad && !fn(f) {
				return nil
			}
			f, hasData, bad = Frame{}, false, false
		case line[0] == ':':
		default:
			name, value, _ := bytes.Cut(line, []byte(":"))
			value = bytes.TrimPrefix(value, []byte(" "))
			switch string(name) {
			case "id":
				id, err := strconv.Atoi(string(value))
				bad = bad || err != nil || id <= 0
				f.ID = id
			case "event":
				f.Event = string(value)
			case "data":
				if hasData {
					f.Data = append(f.Data, '\n')
				}
				f.Data, hasData = append(f.Data, value...), true
			}
		}
	}
	return sc.Err()
}
