package trace

import "strings"

// ParseTraceparent parses a W3C traceparent header
// (https://www.w3.org/TR/trace-context/):
//
//	00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//
// Only version 00 is accepted, and only lowercase hex digits: the spec's
// grammar has no others, and a header with invalid IDs must be ignored.
// The all-zero trace or span ID is invalid per the spec and rejected.
func ParseTraceparent(h string) (TraceID, SpanID, byte, bool) {
	var tid TraceID
	var sid SpanID
	var flags [1]byte
	if len(h) != 55 || h[:3] != "00-" || h[35] != '-' || h[52] != '-' ||
		!lowerHexDecode(tid[:], h[3:35]) || !lowerHexDecode(sid[:], h[36:52]) || !lowerHexDecode(flags[:], h[53:55]) ||
		tid.IsZero() || sid.IsZero() {
		return TraceID{}, SpanID{}, 0, false
	}
	return tid, sid, flags[0], true
}

// lowerHexDecode decodes the 2·len(dst) lowercase hex digits of s into
// dst, reporting whether every digit was one.
func lowerHexDecode(dst []byte, s string) bool {
	for i := range dst {
		hi, lo := strings.IndexByte(hexDigits, s[2*i]), strings.IndexByte(hexDigits, s[2*i+1])
		if hi < 0 || lo < 0 {
			return false
		}
		dst[i] = byte(hi<<4 | lo)
	}
	return true
}

// Traceparent renders the header value that continues this trace from the
// given span, for injection into outgoing requests or responses. A nil
// span yields a header rooted at the trace itself (remote parent), and a
// nil trace yields "".
func (t *Trace) Traceparent(s *Span) string {
	if t == nil {
		return ""
	}
	sid := t.remote
	if s != nil {
		sid = s.id
	}
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = hexAppend(b, t.id[:])
	b = append(b, '-')
	b = hexAppend(b, sid[:])
	b = append(b, '-')
	b = hexAppend(b, []byte{t.flags | 0x01})
	return string(b)
}

const hexDigits = "0123456789abcdef"

func hexAppend(dst, src []byte) []byte {
	for _, c := range src {
		dst = append(dst, hexDigits[c>>4], hexDigits[c&0x0f])
	}
	return dst
}
