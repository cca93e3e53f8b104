package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds named counters, gauges and histograms. A nil
// *Registry is the off switch: every lookup returns a nil instrument
// whose methods are no-ops, without allocating.
//
// Instruments are created on first lookup and live for the registry's
// lifetime; hot paths should look an instrument up once per solve and
// then call its methods, which are lock-free atomics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*counterEntry
	gauges   map[string]*gaugeEntry
	hists    map[string]*histEntry
	// declared is set by the first Declare; the catalogue only ever
	// grows, so later calls have nothing to add.
	declared atomic.Bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*counterEntry{},
		gauges:   map[string]*gaugeEntry{},
		hists:    map[string]*histEntry{},
	}
}

// counterEntry is one counter series: a bare name, or a name plus a
// single label pair (the only label shape the solver needs). Gauges
// and histograms use the same shape (gaugeEntry, histEntry).
type counterEntry struct {
	name, label, lval string
	c                 Counter
}

type gaugeEntry struct {
	name, label, lval string
	g                 Gauge
}

type histEntry struct {
	name, label, lval string
	h                 *Histogram
}

// seriesKey is the canonical series identity, also used verbatim in
// the Prometheus export.
func seriesKey(name, label, lval string) string {
	if label == "" {
		return name
	}
	return name + "{" + label + "=\"" + lval + "\"}"
}

// Counter returns the counter registered under name, creating it at
// zero on first use.
func (r *Registry) Counter(name string) *Counter {
	return r.counterSeries(name, "", "")
}

// CounterWith returns the labeled counter series name{label="value"}.
// The label pair is part of the series identity; exports also emit an
// aggregate value under the bare name.
func (r *Registry) CounterWith(name, label, value string) *Counter {
	if r == nil {
		return nil
	}
	return r.counterSeries(name, label, value)
}

func (r *Registry) counterSeries(name, label, lval string) *Counter {
	if r == nil {
		return nil
	}
	key := seriesKey(name, label, lval)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.counters[key]
	if !ok {
		e = &counterEntry{name: name, label: label, lval: lval}
		r.counters[key] = e
	}
	return &e.c
}

// Gauge returns the gauge registered under name, creating it at zero
// on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return r.gaugeSeries(name, "", "")
}

// GaugeWith returns the labeled gauge series name{label="value"}. The
// label pair is part of the series identity; unlike counters, labeled
// gauges do not fold into an aggregate (summing occupancy gauges from
// different routes would be meaningless).
func (r *Registry) GaugeWith(name, label, value string) *Gauge {
	if r == nil {
		return nil
	}
	return r.gaugeSeries(name, label, value)
}

func (r *Registry) gaugeSeries(name, label, lval string) *Gauge {
	if r == nil {
		return nil
	}
	key := seriesKey(name, label, lval)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.gauges[key]
	if !ok {
		e = &gaugeEntry{name: name, label: label, lval: lval}
		r.gauges[key] = e
	}
	return &e.g
}

// Histogram returns the histogram registered under name, creating it
// with the given ascending upper bounds on first use (nil bounds
// select DurationBuckets). Bounds are fixed at creation; later calls
// ignore the argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.histSeries(name, "", "", bounds)
}

// HistogramWith returns the labeled histogram series
// name{label="value"} — one bucket set per series, rendered in the
// Prometheus export as name_bucket{label="value",le="..."}. Like
// gauges, labeled histograms are not folded into an aggregate.
func (r *Registry) HistogramWith(name, label, value string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.histSeries(name, label, value, bounds)
}

func (r *Registry) histSeries(name, label, lval string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	key := seriesKey(name, label, lval)
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.hists[key]
	if !ok {
		if bounds == nil {
			bounds = DurationBuckets
		}
		e = &histEntry{
			name: name, label: label, lval: lval,
			h: &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)},
		}
		r.hists[key] = e
	}
	return e.h
}

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can move both ways.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add moves the gauge by delta and returns the new value (0 for a nil
// gauge). Useful for occupancy gauges: Add(+1)/Add(-1) around work.
func (g *Gauge) Add(delta float64) float64 {
	if g == nil {
		return 0
	}
	for {
		old := g.bits.Load()
		next := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return next
		}
	}
}

// SetMax raises the gauge to v when v exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// DurationBuckets are the default histogram bounds, in seconds:
// exponential from 100µs to ~100s, sized for per-component solve
// times that span the microsecond-to-minute range.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// Histogram counts observations into fixed buckets (upper bounds,
// Prometheus "le" semantics) and tracks their sum.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is +Inf
	sumBits atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64frombits(old) + v
		if h.sumBits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observations (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}
