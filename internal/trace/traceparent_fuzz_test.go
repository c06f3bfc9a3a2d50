package trace

import (
	"fmt"
	"testing"
)

// FuzzParseTraceparent checks the traceparent parser against the W3C
// Trace Context version-00 grammar: it never panics, it accepts exactly
// the headers validTraceparent accepts, and an accepted header renders
// back from the parsed IDs and flags byte for byte. Seeded from the
// headers of the package and service tests.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
	for _, h := range malformedTraceparents {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, flags, ok := ParseTraceparent(h)
		if want := validTraceparent(h); ok != want {
			t.Fatalf("ParseTraceparent(%q) ok=%v, the grammar says %v", h, ok, want)
		}
		if !ok {
			return
		}
		if got := fmt.Sprintf("00-%s-%s-%02x", tid, sid, flags); got != h {
			t.Fatalf("ParseTraceparent(%q) renders back as %q", h, got)
		}
	})
}

// validTraceparent is the reference: the version-00 grammar
// "00-" 32HEXDIGLC "-" 16HEXDIGLC "-" 2HEXDIGLC, checked byte by byte,
// with neither the trace ID nor the parent ID all zeros.
func validTraceparent(h string) bool {
	if len(h) != 55 {
		return false
	}
	zeroTrace, zeroParent := true, true
	for i := 0; i < len(h); i++ {
		c := h[i]
		switch {
		case i == 2 || i == 35 || i == 52:
			if c != '-' {
				return false
			}
		case i < 2:
			if c != '0' {
				return false
			}
		case ('0' <= c && c <= '9') || ('a' <= c && c <= 'f'):
			if c != '0' && i < 35 {
				zeroTrace = false
			}
			if c != '0' && i > 35 && i < 52 {
				zeroParent = false
			}
		default:
			return false
		}
	}
	return !zeroTrace && !zeroParent
}
