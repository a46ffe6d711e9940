package telemetry

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is a dependency-free Prometheus-text metrics registry. It
// renders the exposition format version 0.0.4 (the text format every
// Prometheus scraper speaks) with families sorted by name and series sorted
// by label set, so output is deterministic for a given state.
//
// Every family is sampled at scrape time: GaugeFunc and CounterFunc
// register a callback that reads live component state (queue depth, cache
// counters, sweep throughput) only when /metrics is actually read, so an
// unscraped registry costs nothing.
type Registry struct {
	mu       sync.Mutex
	families map[string]family
}

// Sample is one series sample produced by a scrape-time callback.
type Sample struct {
	// Labels are label name/value pairs, e.g. {"sweep", "sw-000001"}.
	Labels [][2]string
	Value  float64
}

type family struct {
	name, help, typ string
	fn              func() []Sample
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]family)}
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

// GaugeFunc registers a scrape-time family: fn is called once per render
// and its samples become the family's series. Registering the same name
// again replaces the callback; help and type stay those of the first
// registration.
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
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = family{name: name, help: help, typ: typ}
	}
	f.fn = fn
	r.families[name] = f
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
	r.mu.Lock()
	fams := make([]family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	// Callbacks run outside the registry lock: they read live component
	// state (the server's sweep table, progress snapshots) that has its own
	// locks.
	type row struct{ block, val string }
	var b strings.Builder
	for _, f := range fams {
		var rows []row
		for _, s := range f.fn() {
			rows = append(rows, row{block: labelBlock(s.Labels), val: formatValue(s.Value)})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].block < rows[j].block })
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
// format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Render()))
	})
}
