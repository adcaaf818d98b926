package trace

import "context"

// requestIDKey is the private context key carrying a request-correlation
// ID from the HTTP edge down into the miner, so spans recorded deep in
// the search (miner.run) can carry the same ID the client saw in its
// X-Request-ID response header.
type requestIDKey struct{}

// WithRequestID returns a context carrying the correlation ID. An empty
// id returns ctx unchanged.
func WithRequestID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom extracts the correlation ID carried by ctx ("" when none
// is set).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}
