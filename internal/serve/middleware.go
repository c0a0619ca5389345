package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"

	"streach"
)

// Request identity and the outer middleware: every request gets an
// X-Request-ID (the client's, sanitised, or a fresh one), echoed on the
// response, included in error bodies and access-log lines, so a
// failure seen by a client is attributable to one server-side log line.
// The same wrapper recovers handler panics into typed 500s — a panicking
// query must not take the serving process down.

type ctxKey int

const requestIDKey ctxKey = iota

// RequestID returns the request's ID ("" outside a server request).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}

// newRequestID mints a 16-hex-char random ID.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the process is in serious trouble;
		// serve a constant rather than panicking in the ID path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// sanitizeRequestID accepts a client-supplied ID only if it is short and
// plain (letters, digits, dot, dash, underscore): anything else — header
// injection, log forgery, a 4 KB vanity string — is discarded and
// replaced with a generated ID.
func sanitizeRequestID(s string) string {
	if len(s) == 0 || len(s) > 64 {
		return ""
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '-', c == '_':
		default:
			return ""
		}
	}
	return s
}

// statusWriter records the response status and whether anything was
// written, so the access log and the panic recovery know where the
// response stands.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sw *statusWriter) WriteHeader(status int) {
	if !sw.wrote {
		sw.status = status
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if !sw.wrote {
		sw.status = http.StatusOK
		sw.wrote = true
	}
	return sw.ResponseWriter.Write(p)
}

// middleware is the outermost wrapper: request ID, access log, panic
// recovery.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := sanitizeRequestID(r.Header.Get("X-Request-ID"))
		if rid == "" {
			rid = newRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey, rid))
		sw := &statusWriter{ResponseWriter: w}
		began := time.Now()
		defer func() {
			if p := recover(); p != nil {
				s.vars.Add("panics_recovered_total", 1)
				s.logf("panic serving %s %s rid=%s: %v\n%s", r.Method, r.URL.Path, rid, p, debug.Stack())
				if !sw.wrote {
					s.recordError(http.StatusInternalServerError)
					writeJSON(sw, http.StatusInternalServerError, map[string]any{
						"error":      fmt.Sprintf("internal error: %v", p),
						"code":       streach.Internal.String(),
						"request_id": rid,
					})
				}
			}
			status := sw.status
			if !sw.wrote {
				status = http.StatusOK
			}
			s.logf("%s %s %d %s rid=%s", r.Method, r.URL.RequestURI(), status,
				time.Since(began).Round(time.Microsecond), rid)
		}()
		next.ServeHTTP(sw, r)
	})
}

// logf writes to the configured access logger; a nil logger disables
// logging (the test default).
func (s *Server) logf(format string, args ...any) {
	if s.cfg.AccessLog != nil {
		s.cfg.AccessLog.Printf(format, args...)
	}
}
