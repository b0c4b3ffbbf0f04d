// Package obs is the dependency-free observability layer shared by every
// serving binary: a metrics registry (atomic counters, gauges and
// fixed-bucket histograms) that renders the Prometheus text exposition
// format 0.0.4 on GET /metrics, structured request logging on log/slog
// with per-request IDs propagated router → replica, and an optional
// net/http/pprof debug mux.
//
// The registry deliberately implements only what the serving layer
// needs — no protobuf exposition, no summaries, no push gateways — so
// the module stays free of third-party dependencies. Output is fully
// deterministic (families sorted by name, series by label values),
// which makes golden tests of a scrape possible.
package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type in the exposition output.
type Kind string

// Exposition metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (must be non-negative for the exposition to stay honest).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// family is one named metric family: a help string, a kind, the label
// names every series shares, and the live series keyed by their joined
// label values. Func series are evaluated at scrape time.
type family struct {
	name   string
	help   string
	kind   Kind
	labels []string

	mu     sync.Mutex
	series map[string]any // *Counter | *Gauge | *Histogram, keyed by label key
	keys   []string       // series keys in insertion order (sorted at render)
	fn     func() float64 // scrape-time callback families (no labels)

	buckets []float64 // histogram families: shared upper bounds
}

// labelKey joins label values into the series map key. The unit
// separator cannot appear in sane label values, so keys never collide.
func labelKey(values []string) string { return strings.Join(values, "\x1f") }

// Registry holds metric families and renders them as Prometheus text.
// All methods are safe for concurrent use; registration methods are
// idempotent — asking for an existing (name, kind, labels) returns the
// already-registered family's handles.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family for name, creating it on first use, and
// panics on a kind or label-arity mismatch — that is a programming
// error (two call sites disagreeing about one metric), not a runtime
// condition to limp through.
func (r *Registry) lookup(name, help string, kind Kind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, labels: labels,
			series: make(map[string]any)}
		r.families[name] = f
		return f
	}
	if f.kind != kind || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s%v, was %s%v",
			name, kind, labels, f.kind, f.labels))
	}
	return f
}

// get returns the series for values, creating it with mk on first use.
func (f *family) get(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = mk()
		f.series[key] = s
		f.keys = append(f.keys, key)
	}
	return s
}

// Counter registers (or finds) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, KindCounter, nil)
	return f.get(nil, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or finds) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, KindGauge, nil)
	return f.get(nil, func() any { return &Gauge{} }).(*Gauge)
}

// CounterFunc registers a counter whose value is read by calling fn at
// scrape time — the bridge for counters the serving layer already
// tracks in its own atomics.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, KindCounter, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// GaugeFunc registers a gauge read by calling fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, KindGauge, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// funcSeries is one series of a labeled scrape-time family: its value
// is fn() at render time. Mutated only under its family's mu.
type funcSeries struct{ fn func() float64 }

// FuncVec is a labeled metric family whose series are read by calling
// per-series callbacks at scrape time — the labeled sibling of
// CounterFunc/GaugeFunc, bridging counters the serving layer already
// tracks per class (queue depth by priority, shed counts by reason)
// without duplicating state.
type FuncVec struct{ f *family }

// CounterFuncVec registers (or finds) a labeled scrape-time counter
// family.
func (r *Registry) CounterFuncVec(name, help string, labels ...string) *FuncVec {
	return &FuncVec{f: r.lookup(name, help, KindCounter, labels)}
}

// GaugeFuncVec registers (or finds) a labeled scrape-time gauge family.
func (r *Registry) GaugeFuncVec(name, help string, labels ...string) *FuncVec {
	return &FuncVec{f: r.lookup(name, help, KindGauge, labels)}
}

// Register binds the series for the given label values to fn, replacing
// any previous binding (idempotent re-registration, like the unlabeled
// func metrics).
func (v *FuncVec) Register(fn func() float64, values ...string) {
	if len(values) != len(v.f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			v.f.name, len(v.f.labels), len(values)))
	}
	key := labelKey(values)
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	if s, ok := v.f.series[key]; ok {
		s.(*funcSeries).fn = fn
		return
	}
	v.f.series[key] = &funcSeries{fn: fn}
	v.f.keys = append(v.f.keys, key)
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec registers (or finds) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, KindCounter, labels)}
}

// With returns the counter for the given label values (created on
// first use).
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() any { return &Counter{} }).(*Counter)
}

// Histogram registers (or finds) an unlabeled histogram with the given
// bucket upper bounds (nil picks DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.lookup(name, help, KindHistogram, nil)
	if f.buckets == nil {
		f.buckets = normalizeBuckets(buckets)
	}
	return f.get(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec is a histogram family with labels; every series shares
// the family's buckets.
type HistogramVec struct{ f *family }

// HistogramVec registers (or finds) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	f := r.lookup(name, help, KindHistogram, labels)
	if f.buckets == nil {
		f.buckets = normalizeBuckets(buckets)
	}
	return &HistogramVec{f: f}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// formatValue renders a sample value the way Prometheus expects:
// shortest representation that round-trips.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabel escapes a label value for the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// escapeHelp escapes a HELP string for the exposition format.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// labelPairs renders `name="value"` pairs (no braces) for a series.
func labelPairs(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		// escapeLabel already produces the quoted form's content; %q here
		// would escape the escapes.
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// writeSeries renders one series' sample lines.
func writeSeries(w io.Writer, f *family, pairs string, s any) error {
	braced := ""
	if pairs != "" {
		braced = "{" + pairs + "}"
	}
	switch m := s.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, braced, m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, braced, m.Value())
		return err
	case *funcSeries:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, braced, formatValue(m.fn()))
		return err
	case *Histogram:
		snap := m.Snapshot()
		cum := int64(0)
		for i, upper := range snap.Upper {
			cum += snap.Counts[i]
			le := formatValue(upper)
			sep := pairs
			if sep != "" {
				sep += ","
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", f.name, sep, le, cum); err != nil {
				return err
			}
		}
		cum += snap.Counts[len(snap.Upper)]
		sep := pairs
		if sep != "" {
			sep += ","
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", f.name, sep, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced0(pairs), formatValue(snap.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced0(pairs), cum)
		return err
	}
	return nil
}

// braced0 wraps non-empty label pairs in braces for _sum/_count lines.
// (The suffix goes on the name, before the braces.)
func braced0(pairs string) string {
	if pairs == "" {
		return ""
	}
	return "{" + pairs + "}"
}

// WritePrometheus renders every family in text exposition format 0.0.4,
// families sorted by name and series by label values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	fams := make(map[string]*family, len(r.families))
	for n, f := range r.families {
		names = append(names, n)
		fams[n] = f
	}
	r.mu.Unlock()
	sort.Strings(names)

	for _, n := range names {
		f := fams[n]
		f.mu.Lock()
		keys := append([]string(nil), f.keys...)
		series := make(map[string]any, len(keys))
		for _, k := range keys {
			series[k] = f.series[k]
		}
		fn := f.fn
		f.mu.Unlock()
		sort.Strings(keys)

		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		if fn != nil {
			if _, err := fmt.Fprintf(w, "%s %s\n", f.name, formatValue(fn())); err != nil {
				return err
			}
			continue
		}
		for _, k := range keys {
			var values []string
			if k != "" || len(f.labels) > 0 {
				values = strings.Split(k, "\x1f")
			}
			if err := writeSeries(w, f, labelPairs(f.labels, values), series[k]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ContentType is the Content-Type of the text exposition format 0.0.4.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Handler serves the registry as GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}
