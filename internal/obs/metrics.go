// Package obs is the observability substrate of the serving stack: a
// stdlib-only metrics registry with Prometheus text exposition
// (metrics.go, expose.go) and lightweight per-request tracing with
// bounded per-route rings of recent traces (trace.go). The serve layer
// instruments its hot paths through typed Counter/Gauge/Histogram
// handles registered here; GET /metrics renders the whole registry and
// GET /debug/requests browses recent traces. Everything is safe for
// concurrent use and the hot-path operations (Counter.Inc,
// Histogram.Observe) are single atomic adds — no locks, no allocation.
//
// The package deliberately has no repro-specific imports: wire shapes
// for the JSON debug surfaces live in internal/api/v1, converted by the
// serve layer, so obs itself never defines a wire contract.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type strings, as emitted in the # TYPE exposition line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Counter is a monotonically increasing integer metric handle. The
// zero value is unusable; obtain one from Registry.Counter or
// CounterVec.With. Inc/Add are one atomic add.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative n is a programming error (counters are
// monotone); it is clamped to zero so a bug shows as a flat series
// rather than a sawtooth that breaks rate().
func (c *Counter) Add(n int64) {
	if n < 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable integer metric handle (resident bytes, current
// generation, ...). Obtain one from Registry.Gauge or GaugeVec.With.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// family is one registered metric name: its metadata plus the children
// keyed by label values. Unlabeled metrics are a family with a single
// child under the empty key.
type family struct {
	name   string
	help   string
	typ    string
	labels []string

	mu       sync.RWMutex
	children map[string]*child

	// fn, when non-nil, makes this family a gauge evaluated at render
	// time (GaugeFunc); it has no children.
	fn func() int64
}

// child is one label combination of a family.
type child struct {
	labelValues []string
	counter     *Counter
	gauge       *Gauge
	hist        *Histogram
}

// Registry holds the registered metric families and renders them in
// Prometheus text exposition format (expose.go). All methods are safe
// for concurrent use; registration is rare (startup), lookups on the
// Observe path are one RLock over a small map.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string // registration order; render sorts per family anyway
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// register installs a family, panicking on a duplicate name with a
// different shape — metric names are a global contract (docs, dashboards,
// scrape configs), so colliding registrations are a programming error
// caught at startup, not a runtime condition to soldier through.
func (r *Registry) register(name, help, typ string, labels []string) *family {
	if name == "" {
		panic("obs: metric name must be non-empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.typ != typ || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, labels: labels,
		children: make(map[string]*child)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// childFor returns (creating if needed) the family's child for the
// given label values.
func (f *family) childFor(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	c, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok = f.children[key]; ok {
		return c
	}
	c = &child{labelValues: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		c.counter = &Counter{}
	case typeGauge:
		c.gauge = &Gauge{}
	case typeHistogram:
		c.hist = &Histogram{}
	}
	f.children[key] = c
	return c
}

// Counter registers (or returns the existing) unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil).childFor(nil).counter
}

// Gauge registers (or returns the existing) unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil).childFor(nil).gauge
}

// GaugeFunc registers a gauge whose value is computed at render time —
// for quantities another subsystem already tracks (resident bytes,
// table counts), so exposition cannot drift from the source of truth.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	f := r.register(name, help, typeGauge, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// CounterFunc registers a counter whose value is read at render time —
// for monotone counts another subsystem already tracks (the QoS front
// end's admission tallies), so exposition cannot drift from the source
// of truth. fn must be monotone non-decreasing; the registry does not
// re-check.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	f := r.register(name, help, typeCounter, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// Histogram registers (or returns the existing) unlabeled duration
// histogram.
func (r *Registry) Histogram(name, help string) *Histogram {
	return r.register(name, help, typeHistogram, nil).childFor(nil).hist
}

// CounterVec is a counter family with labels; With resolves one child.
type CounterVec struct{ f *family }

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, typeCounter, labels)}
}

// With returns the counter for the given label values (created on
// first use). Hot paths should resolve once and keep the handle.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.childFor(values).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, typeGauge, labels)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.childFor(values).gauge
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.register(name, help, typeHistogram, labels)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.childFor(values).hist
}

// Each visits every child of the family in sorted label order, for ops
// surfaces that digest labeled histograms (e.g. /healthz per-route
// latency) without re-tracking them elsewhere.
func (v *HistogramVec) Each(fn func(labelValues []string, h *Histogram)) {
	v.f.mu.RLock()
	children := make([]*child, 0, len(v.f.children))
	for _, c := range v.f.children {
		children = append(children, c)
	}
	v.f.mu.RUnlock()
	sort.Slice(children, func(i, j int) bool {
		return lessStrings(children[i].labelValues, children[j].labelValues)
	})
	for _, c := range children {
		fn(c.labelValues, c.hist)
	}
}

func lessStrings(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
