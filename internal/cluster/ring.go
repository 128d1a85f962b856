package cluster

// Consistent-hash ring over a static backend set. Each backend owns
// vnodes points on a 64-bit circle (FNV-1a over "name#i"), and a key
// routes to the first point clockwise of its own hash. Properties the
// coordinator (and the rebalance tests) depend on:
//
//   - Determinism: the point set is a pure function of the backend names,
//     independent of the order they were configured in and of any process
//     state — every coordinator restart, and every coordinator replica,
//     computes the same assignment.
//   - Minimal movement: a dead backend is skipped at lookup time, not
//     removed from the ring, so only the keys it owned remap (to their
//     clockwise successors, ~1/N of the keyspace for N backends); keys on
//     surviving backends never move.
//   - Exact readmission: because the points never change, a backend that
//     comes back receives exactly the keys it owned before.

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is how many ring points each backend owns. 128 keeps the
// per-backend keyspace share within a few percent of 1/N while the whole
// ring stays a small sorted slice (binary search per lookup).
const vnodes = 128

type ringPoint struct {
	hash    uint64
	backend string
}

// Ring is an immutable consistent-hash ring. Build with NewRing; lookups
// are safe for concurrent use.
type Ring struct {
	points   []ringPoint // sorted by hash
	backends []string    // distinct names, sorted
}

// NewRing builds the ring from the backend names (duplicates collapse)
// with vnodes points per backend.
func NewRing(backends []string) *Ring {
	seen := make(map[string]bool, len(backends))
	var names []string
	for _, b := range backends {
		if b == "" || seen[b] {
			continue
		}
		seen[b] = true
		names = append(names, b)
	}
	sort.Strings(names)
	r := &Ring{backends: names, points: make([]ringPoint, 0, len(names)*vnodes)}
	for _, name := range names {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashKey(fmt.Sprintf("%s#%d", name, i)), backend: name})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (vanishingly rare) break by name so the ring stays a
		// pure function of the backend set.
		return r.points[i].backend < r.points[j].backend
	})
	return r
}

// Backends returns the distinct backend names on the ring, sorted.
func (r *Ring) Backends() []string { return r.backends }

// Order returns every backend in the key's clockwise preference order:
// the owner first, then each distinct successor. Callers walk it skipping
// dead backends — the first live entry is the route, the rest are the
// failover order.
func (r *Ring) Order(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.backends))
	seen := make(map[string]bool, len(r.backends))
	for i := 0; i < len(r.points) && len(out) < len(r.backends); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, p.backend)
		}
	}
	return out
}

// Pick returns the first backend in the key's preference order that
// alive accepts (nil alive accepts everything). ok is false only when
// the ring is empty or alive rejected every backend.
func (r *Ring) Pick(key string, alive func(string) bool) (string, bool) {
	for _, b := range r.Order(key) {
		if alive == nil || alive(b) {
			return b, true
		}
	}
	return "", false
}

// hashKey is FNV-1a 64 — not cryptographic, but the routing key is
// already a SHA-256 canonical-formula hash; this only spreads it (and the
// vnode labels) over the circle.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}
