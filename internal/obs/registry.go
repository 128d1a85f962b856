package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attaches dimensions to an instrument. Instruments with the same
// name and different label sets are children of one metric family and must
// agree on type.
type Labels map[string]string

// Registry is a process-wide metrics registry: counters, gauges, gauge
// functions, and histograms, each addressed by (name, labels). All
// instrument operations are safe for concurrent use; exposition
// (WritePrometheus, Snapshot) is deterministic — families sort by name,
// children by label signature.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Instrument types.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one metric name: its help text, type, and labeled children.
type family struct {
	name, help, typ string
	children        map[string]*child // keyed by label signature
	order           []string          // signatures, sorted on demand
	sorted          bool
}

// child is one (name, labels) series. The instrument fields are written
// once, under the registry lock, when the child is created; gaugeFn is
// atomic because GaugeFunc re-registration replaces it while scrapes may
// be reading it.
type child struct {
	labels  Labels // nil for the unlabeled child
	counter *Counter
	gauge   *Gauge
	gaugeFn atomic.Pointer[func() float64]
	hist    *Histogram
}

// Counter is a monotonically increasing integer.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative to keep the counter monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous float value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d atomically.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a cumulative-bucket latency/size distribution.
type Histogram struct {
	bounds []float64      // ascending upper bounds, +Inf implicit
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    Gauge          // atomic float accumulator
	count  atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DefBuckets are the default latency buckets (seconds), spanning sub-
// millisecond solver cells to multi-second solves.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10, 30}

// Counter returns (registering on first use) the counter name{labels}.
// Registering a name that already exists with a different type panics: the
// registry is program-assembled, so a type clash is a bug, not input.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.child(name, help, typeCounter, labels, nil).counter
}

// Gauge returns (registering on first use) the gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	return r.child(name, help, typeGauge, labels, nil).gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time — the bridge for live state owned elsewhere (e.g. a server's queue
// length). Re-registering the same (name, labels) replaces fn.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.child(name, help, typeGauge, labels, nil).gaugeFn.Store(&fn)
}

// Histogram returns (registering on first use) the histogram name{labels}
// with the given ascending bucket upper bounds (nil = DefBuckets). A +Inf
// bucket is implicit. Bucket bounds are fixed at first registration.
func (r *Registry) Histogram(name, help string, buckets []float64, labels Labels) *Histogram {
	return r.child(name, help, typeHistogram, labels, buckets).hist
}

// child resolves (name, labels) to its series, creating the family, the
// child, and its instrument as needed — all under the registry lock, so
// concurrent first registrations of the same series return one instrument.
func (r *Registry) child(name, help, typ string, labels Labels, buckets []float64) *child {
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, children: make(map[string]*child)}
		r.families[name] = f
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.typ, typ))
	}
	c := f.children[sig]
	if c == nil {
		var copied Labels
		if len(labels) > 0 {
			copied = make(Labels, len(labels))
			for k, v := range labels {
				copied[k] = v
			}
		}
		c = &child{labels: copied}
		switch typ {
		case typeCounter:
			c.counter = &Counter{}
		case typeGauge:
			c.gauge = &Gauge{}
		case typeHistogram:
			if buckets == nil {
				buckets = DefBuckets
			}
			bounds := append([]float64(nil), buckets...)
			for i := 1; i < len(bounds); i++ {
				if bounds[i] <= bounds[i-1] {
					panic(fmt.Sprintf("obs: histogram %q buckets not strictly ascending", name))
				}
			}
			c.hist = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		}
		f.children[sig] = c
		f.order = append(f.order, sig)
		f.sorted = false
	}
	return c
}

// labelSignature canonicalizes a label set: keys sorted, joined with
// non-printable separators so distinct sets cannot collide.
func labelSignature(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte(0x1f)
		b.WriteString(labels[k])
		b.WriteByte(0x1e)
	}
	return b.String()
}

// familyView is an exposition-time snapshot of one family: name/help/type
// plus the children in label-signature order. The child pointers are stable
// and their instruments atomic, so readers need no further locking.
type familyView struct {
	name, help, typ string
	children        []*child
}

// snapshotFamilies returns the families sorted by name with each family's
// children sorted by label signature, for deterministic exposition. The
// child lists are copied under the registry lock so concurrent registration
// cannot race with an in-flight scrape.
func (r *Registry) snapshotFamilies() []familyView {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]familyView, 0, len(r.families))
	for _, f := range r.families {
		if !f.sorted {
			sort.Strings(f.order)
			f.sorted = true
		}
		children := make([]*child, len(f.order))
		for i, sig := range f.order {
			children[i] = f.children[sig]
		}
		out = append(out, familyView{name: f.name, help: f.help, typ: f.typ, children: children})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
