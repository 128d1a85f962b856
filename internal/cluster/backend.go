package cluster

// Backend health tracking: one record per configured replica, marked up
// or down by an active prober (periodic GET /healthz) and passively by
// proxy-time transport failures. State changes move routing instantly —
// the ring itself never changes, lookups just skip dead backends — so
// ejection and readmission are O(1) flag flips with the minimal-movement
// and exact-restore properties proven in ring_test.go.

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"
)

// backendState is one replica's live routing state. The name (host:port
// of its base URL) is its ring identity and its metric label.
type backend struct {
	name string
	base *url.URL

	up    atomic.Bool
	fails atomic.Int32 // consecutive probe failures (prober + passive markdowns)
}

// markDown ejects the backend from routing (idempotent).
func (b *backend) markDown() { b.up.Store(false) }

// markUp readmits the backend and clears the failure streak.
func (b *backend) markUp() {
	b.fails.Store(0)
	b.up.Store(true)
}

// probeLoop drives one backend's active health checking until ctx ends.
// A 200 /healthz readmits the backend immediately; failThreshold
// consecutive failures (non-200, transport error, or timeout) eject it.
// A draining replica answers 503, so a cluster-wide drain naturally
// removes replicas from routing before their listeners close.
func (c *Coordinator) probeLoop(ctx context.Context, b *backend) {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if c.probeOnce(ctx, b) {
			c.m.probes(b.name, "ok").Inc()
			if !b.up.Load() {
				b.markUp()
			} else {
				b.fails.Store(0)
			}
		} else {
			c.m.probes(b.name, "fail").Inc()
			if b.fails.Add(1) >= failThreshold {
				b.markDown()
			}
		}
	}
}

// probeOnce is one health check: GET {base}/healthz under ProbeTimeout.
func (c *Coordinator) probeOnce(ctx context.Context, b *backend) bool {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base.JoinPath("/healthz").String(), nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// noteTransportFailure is the passive markdown path: the proxy reached
// for the backend and the transport failed (no response bytes), so the
// backend is ejected immediately — the prober readmits it on its next
// successful /healthz.
func (c *Coordinator) noteTransportFailure(b *backend) {
	b.fails.Store(failThreshold)
	b.markDown()
}
