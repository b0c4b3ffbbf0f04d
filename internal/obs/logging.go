package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"sync/atomic"
)

// RequestIDHeader carries the per-request correlation id: generated at
// the outermost hop (the router, or the replica for direct traffic),
// propagated on proxied upstream requests, echoed on every response and
// stamped into the error envelope and every request log line.
const RequestIDHeader = "X-Request-ID"

type ridKey struct{}

// WithRequestID returns ctx carrying the request id.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ridKey{}, id)
}

// RequestID returns the request id carried by ctx ("" when absent).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ridKey{}).(string)
	return id
}

var ridFallback atomic.Uint64

// NewRequestID returns a fresh 16-hex-char request id.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("rid-%016x", ridFallback.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// NewLogger builds the shared structured logger: logfmt-style key=value
// output on w (stderr when nil) at the given level, every line keyed
// with the component that emitted it.
func NewLogger(w io.Writer, component string, level slog.Leveler) *slog.Logger {
	if w == nil {
		w = os.Stderr
	}
	h := slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})
	return slog.New(h).With(slog.String("component", component))
}

// Nop returns a logger that discards everything — the default for
// embedded servers and tests that pass no logger.
func Nop() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{
		Level: slog.Level(127), // above every real level: nothing is enabled
	}))
}

// ParseLevel maps a -log-level flag value onto a slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "", "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return slog.LevelInfo, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}

// ErrorCode maps an HTTP status onto the stable machine-readable code
// of the uniform error envelope — the single mapping the service layer,
// the cluster router and the request logger all share. Statuses below
// 400 map to "".
func ErrorCode(status int) string {
	if status < http.StatusBadRequest {
		return ""
	}
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusConflict:
		return "conflict"
	case http.StatusTooManyRequests:
		return "too_many_requests"
	case http.StatusBadGateway, http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

// probeMethods are the verbs AllowedMethods tests a path against.
var probeMethods = []string{
	http.MethodGet, http.MethodHead, http.MethodPost,
	http.MethodPut, http.MethodPatch, http.MethodDelete,
}

// AllowedMethods probes mux for the verbs that WOULD match r's path, for
// the Allow header of a 405 — derived from the real routing table, so it
// can never drift from the registered patterns. The service and the
// cluster router share it, so a wrong verb answers alike on both. Empty
// means no verb routes the path: a 404.
func AllowedMethods(mux *http.ServeMux, r *http.Request) []string {
	var out []string
	for _, m := range probeMethods {
		probe := r.Clone(r.Context())
		probe.Method = m
		if _, pattern := mux.Handler(probe); pattern != "" {
			out = append(out, m)
		}
	}
	return out
}
