package telemetry

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a dependency-free Prometheus-text metrics registry. It
// renders the exposition format version 0.0.4 (the text format every
// Prometheus scraper speaks) with families sorted by name and series sorted
// by label set, so output is deterministic for a given state.
//
// Two kinds of series coexist:
//
//   - event-time counters, incremented where the event happens
//     (Counter.Add is one atomic add);
//   - scrape-time families registered with GaugeFunc, sampled only when
//     /metrics is actually read — the right shape for anything derived from
//     live state (queue depth, heartbeat age, sweep throughput), because an
//     unscraped registry then costs nothing.
//
// Every method is safe on a nil *Registry (and Counter handles from one are
// nil and equally inert), so components take a registry unconditionally and
// instrument without branching.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// Sample is one scrape-time series sample produced by a GaugeFunc callback.
type Sample struct {
	// Labels are label name/value pairs, e.g. {"worker", "rack3-a"}.
	Labels [][2]string
	Value  float64
}

type family struct {
	name, help, typ string
	series          map[string]*value // keyed by rendered label block
	fn              func() []Sample   // scrape-time families
}

type value struct {
	bits atomic.Uint64 // float64 bits
}

func (v *value) add(d float64) {
	for {
		old := v.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if v.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (v *value) get() float64 { return math.Float64frombits(v.bits.Load()) }

// Counter is a monotonically increasing series handle; nil is a no-op.
type Counter struct{ v *value }

// Add increments the counter by d (callers pass non-negative deltas).
func (c *Counter) Add(d float64) {
	if c == nil || c.v == nil {
		return
	}
	c.v.add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the named family, creating it with the given type on first
// use. Help and type are fixed by the first registration.
func (r *Registry) family(name, help, typ string) *family {
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*value)}
		r.families[name] = f
	}
	return f
}

// labelBlock renders a label set in sorted order: {a="x",b="y"} or "".
func labelBlock(labels [][2]string) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([][2]string(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i][0] < ls[j][0] })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l[0])
		b.WriteString("=\"")
		b.WriteString(escapeLabel(l[1]))
		b.WriteString("\"")
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\"", `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Counter returns (creating on first use) the counter series name{labels...}.
// labels are name/value pairs: Counter("x_total", "...", "worker", "a").
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{v: r.seriesValue(name, help, "counter", labels)}
}

func (r *Registry) seriesValue(name, help, typ string, kv []string) *value {
	labels := make([][2]string, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		labels = append(labels, [2]string{kv[i], kv[i+1]})
	}
	block := labelBlock(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typ)
	v := f.series[block]
	if v == nil {
		v = &value{}
		f.series[block] = v
	}
	return v
}

// GaugeFunc registers a scrape-time family: fn is called once per render
// and its samples become the family's series. Registering the same name
// again replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() []Sample) {
	r.funcFamily(name, help, "gauge", fn)
}

// CounterFunc is GaugeFunc for monotonic series whose source of truth lives
// in component state (e.g. cache hit counters): sampled at scrape time,
// exposed with type counter.
func (r *Registry) CounterFunc(name, help string, fn func() []Sample) {
	r.funcFamily(name, help, "counter", fn)
}

func (r *Registry) funcFamily(name, help, typ string, fn func() []Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typ)
	f.fn = fn
}

// formatValue renders a sample value the way Prometheus clients do:
// integers without exponent, everything else shortest round-trip.
func formatValue(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Render returns the full exposition document.
func (r *Registry) Render() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type row struct{ block, val string }
	type fam struct {
		name, help, typ string
		rows            []row
		fn              func() []Sample
	}
	fams := make([]fam, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		ff := fam{name: f.name, help: f.help, typ: f.typ, fn: f.fn}
		blocks := make([]string, 0, len(f.series))
		for b := range f.series {
			blocks = append(blocks, b)
		}
		sort.Strings(blocks)
		for _, b := range blocks {
			ff.rows = append(ff.rows, row{block: b, val: formatValue(f.series[b].get())})
		}
		fams = append(fams, ff)
	}
	r.mu.Unlock()

	// Scrape-time callbacks run outside the registry lock: they read live
	// component state (coordinator tables, progress snapshots) that has its
	// own locks.
	var b strings.Builder
	for _, f := range fams {
		rows := f.rows
		if f.fn != nil {
			samples := f.fn()
			rows = rows[:0]
			for _, s := range samples {
				rows = append(rows, row{block: labelBlock(s.Labels), val: formatValue(s.Value)})
			}
			sort.Slice(rows, func(i, j int) bool { return rows[i].block < rows[j].block })
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.typ)
		for _, rw := range rows {
			b.WriteString(f.name)
			b.WriteString(rw.block)
			b.WriteByte(' ')
			b.WriteString(rw.val)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Handler serves the registry at GET /metrics in the text exposition
// format. A nil registry serves an empty (but valid) document.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Render()))
	})
}
