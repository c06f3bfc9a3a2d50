package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"
)

// The OTLP/HTTP JSON shapes (opentelemetry-proto trace v1, protojson
// mapping): 64-bit integers are string-encoded, IDs are lowercase hex.
// Hand-rolled here so the exporter stays dependency-free while a stock
// collector's /v1/traces endpoint ingests it unmodified.

type otlpExport struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpKeyValue `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID      string         `json:"traceId"`
	SpanID       string         `json:"spanId"`
	ParentSpanID string         `json:"parentSpanId,omitempty"`
	Name         string         `json:"name"`
	Kind         int            `json:"kind"`
	Start        string         `json:"startTimeUnixNano"`
	End          string         `json:"endTimeUnixNano"`
	Attributes   []otlpKeyValue `json:"attributes,omitempty"`
}

type otlpKeyValue struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

type otlpValue struct {
	StringValue *string `json:"stringValue,omitempty"`
	IntValue    *string `json:"intValue,omitempty"`
}

const otlpKindInternal = 1

func otlpAttr(a Attr) otlpKeyValue {
	if a.IsNum {
		v := strconv.FormatInt(a.Num, 10)
		return otlpKeyValue{Key: a.Key, Value: otlpValue{IntValue: &v}}
	}
	v := a.Value
	return otlpKeyValue{Key: a.Key, Value: otlpValue{StringValue: &v}}
}

func unixNano(t time.Time) string {
	if t.IsZero() {
		return "0"
	}
	return strconv.FormatInt(t.UnixNano(), 10)
}

// Export builds the OTLP JSON document for the traces' completed spans.
func Export(serviceName string, traces ...*Trace) ([]byte, error) {
	name := serviceName
	rs := otlpResourceSpans{
		Resource: otlpResource{Attributes: []otlpKeyValue{
			{Key: "service.name", Value: otlpValue{StringValue: &name}},
		}},
	}
	for _, t := range traces {
		spans, _ := t.Snapshot()
		if len(spans) == 0 {
			continue
		}
		ss := otlpScopeSpans{Scope: otlpScope{Name: "repro/internal/trace"}}
		for _, d := range spans {
			sp := otlpSpan{
				TraceID: t.ID().String(),
				SpanID:  d.ID.String(),
				Name:    d.Name,
				Kind:    otlpKindInternal,
				Start:   unixNano(d.Start),
				End:     unixNano(d.End),
			}
			if !d.Parent.IsZero() {
				sp.ParentSpanID = d.Parent.String()
			}
			for _, a := range d.Attrs {
				sp.Attributes = append(sp.Attributes, otlpAttr(a))
			}
			ss.Spans = append(ss.Spans, sp)
		}
		rs.ScopeSpans = append(rs.ScopeSpans, ss)
	}
	return json.Marshal(otlpExport{ResourceSpans: []otlpResourceSpans{rs}})
}

// ExportFile writes the OTLP JSON document to path (0644, truncating).
func ExportFile(path, serviceName string, traces ...*Trace) error {
	b, err := Export(serviceName, traces...)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// PostOTLP POSTs the document to an OTLP/HTTP traces endpoint (the
// collector-standard path is /v1/traces). A nil client uses a 5-second
// default so a dead collector cannot wedge job teardown.
func PostOTLP(url, serviceName string, client *http.Client, traces ...*Trace) error {
	b, err := Export(serviceName, traces...)
	if err != nil {
		return err
	}
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("trace: collector %s returned %s", url, resp.Status)
	}
	return nil
}
