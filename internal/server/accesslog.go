package server

// Structured access logging: one slog line per HTTP request with the
// fields an operator greps a production incident by — method, path,
// status, response bytes, duration, and the request's correlation id,
// plus the cache/dedup outcome when the handler set one. The handler
// format (text or JSON) is the caller's choice via Config.AccessLog
// (cmd/neuroselect-serve's -log-format flag).
//
// Under flood the log samples itself: the first 200 requests of each
// wall-clock second log normally, and beyond that only every 100th line
// is written, flagged sampled=true — a request storm cannot turn the
// logger into the bottleneck or the disk filler.

import (
	"log/slog"
	"net/http"
	"sync/atomic"
	"time"
)

// accessLogger wraps an slog.Logger with per-second flood sampling.
type accessLogger struct {
	log   *slog.Logger
	limit int64
	every int64
	now   func() time.Time // injectable for tests

	sec atomic.Int64 // unix second of the current window
	n   atomic.Int64 // requests seen this window
}

// newAccessLogger returns nil when log is nil (logging off). limit and
// every default (<=0) to 200 lines per second and every 100th beyond.
func newAccessLogger(log *slog.Logger, limit, every int) *accessLogger {
	if log == nil {
		return nil
	}
	if limit <= 0 {
		limit = 200
	}
	if every <= 0 {
		every = 100
	}
	return &accessLogger{log: log, limit: int64(limit), every: int64(every), now: time.Now}
}

// admit decides whether this request's line is written and whether it
// must carry the sampled flag. Approximate under concurrency — a window
// roll can momentarily over- or under-count by a few requests — which is
// fine for a sampling heuristic that only has to bound log volume.
func (l *accessLogger) admit() (ok, sampled bool) {
	sec := l.now().Unix()
	if old := l.sec.Load(); old != sec {
		if l.sec.CompareAndSwap(old, sec) {
			l.n.Store(0)
		}
	}
	n := l.n.Add(1)
	if n <= l.limit {
		return true, false
	}
	if l.every == 1 {
		return true, true
	}
	return (n-l.limit)%l.every == 1, true
}

// logRecorder counts response bytes and captures the status code for the
// access line. Unwrap exposes the underlying writer so SSE handlers can
// still reach Flusher through http.ResponseController.
type logRecorder struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (r *logRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *logRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *logRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// logAccess wraps the mux with the access log; a nil logger is a
// zero-cost pass-through.
func (s *Server) logAccess(next http.Handler) http.Handler {
	if s.alog == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &logRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		ok, sampled := s.alog.admit()
		if !ok {
			return
		}
		// The response header map is shared with the handler, so the
		// request id (set by WithRequestID) and the cache/dedup verdicts
		// are readable here after the fact.
		attrs := []slog.Attr{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", rec.code),
			slog.Int64("bytes", rec.bytes),
			slog.Duration("duration", time.Since(start)),
			slog.String("request_id", w.Header().Get("X-Request-ID")),
		}
		if v := w.Header().Get("X-Cache"); v != "" {
			attrs = append(attrs, slog.String("cache", v))
		}
		if v := w.Header().Get("X-Dedup"); v != "" {
			attrs = append(attrs, slog.String("dedup", v))
		}
		if v := w.Header().Get("X-Leader-Request-ID"); v != "" {
			attrs = append(attrs, slog.String("leader_request_id", v))
		}
		if sampled {
			attrs = append(attrs, slog.Bool("sampled", true))
		}
		s.alog.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
	})
}
