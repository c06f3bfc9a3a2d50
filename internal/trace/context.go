package trace

import "context"

type ctxKey struct{}

type ctxVal struct {
	tr *Trace
	sp *Span
}

// NewContext returns ctx carrying the trace and a current span. Either
// may be nil; downstream FromContext callers then see the disabled layer.
func NewContext(ctx context.Context, tr *Trace, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, ctxVal{tr: tr, sp: sp})
}

// FromContext extracts the trace and current span threaded through ctx,
// or (nil, nil) — the fully-disabled recorder — when none was attached.
// A nil ctx is legal and disabled too.
func FromContext(ctx context.Context) (*Trace, *Span) {
	if ctx == nil {
		return nil, nil
	}
	if v, ok := ctx.Value(ctxKey{}).(ctxVal); ok {
		return v.tr, v.sp
	}
	return nil, nil
}
