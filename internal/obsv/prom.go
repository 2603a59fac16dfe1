package obsv

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricKind orders the three metric families when a single name is (by
// mistake or design) registered as more than one kind: counter < gauge <
// histogram, matching the historical Export overwrite order so the last
// kind deterministically wins in the flattened map.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// metricPoint is one named metric in a registry snapshot.
type metricPoint struct {
	name string
	kind metricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// snapshot returns every registered metric in a fully deterministic
// order: by name, ties (the same name registered as several kinds) broken
// by kind. Names that share a prefix ("sim.events", "sim.events.queued",
// "sim.events-dropped") sort bytewise, so the order never depends on map
// iteration or on which metric was created first.
func (r *Registry) snapshot() []metricPoint {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	pts := make([]metricPoint, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for name, c := range r.counters {
		pts = append(pts, metricPoint{name: name, kind: kindCounter, c: c})
	}
	for name, g := range r.gauges {
		pts = append(pts, metricPoint{name: name, kind: kindGauge, g: g})
	}
	for name, h := range r.hists {
		pts = append(pts, metricPoint{name: name, kind: kindHistogram, h: h})
	}
	r.mu.Unlock()
	sort.Slice(pts, func(i, j int) bool {
		if pts[i].name != pts[j].name {
			return pts[i].name < pts[j].name
		}
		return pts[i].kind < pts[j].kind
	})
	return pts
}

// SanitizeProm rewrites a dotted/dashed metric name into the character
// set Prometheus text exposition allows ([a-zA-Z0-9_:]): every illegal
// byte becomes '_', and a leading digit gains a '_' prefix. The mapping
// is not injective — "a.b" and "a-b" both become "a_b" — so exporters
// must dedupe (WritePrometheus suffixes later collisions).
func SanitizeProm(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		ch := name[i]
		switch {
		case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z', ch == '_', ch == ':':
			b.WriteByte(ch)
		case ch >= '0' && ch <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(ch)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Dotted names are sanitized to underscore form;
// histograms expand to cumulative <name>_bucket{le="..."} series over the
// log2 bucket upper bounds plus _sum and _count. Output order is fully
// deterministic: sorted by sanitized name, then raw name, then kind.
// Distinct raw names that sanitize to the same series name keep
// deterministic output by suffixing the later ones _2, _3, ...
// A nil registry writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	pts := r.snapshot()
	sort.SliceStable(pts, func(i, j int) bool {
		si, sj := SanitizeProm(pts[i].name), SanitizeProm(pts[j].name)
		if si != sj {
			return si < sj
		}
		if pts[i].name != pts[j].name {
			return pts[i].name < pts[j].name
		}
		return pts[i].kind < pts[j].kind
	})
	seen := make(map[string]int, len(pts))
	for _, pt := range pts {
		name := SanitizeProm(pt.name)
		seen[name]++
		if n := seen[name]; n > 1 {
			name = fmt.Sprintf("%s_%d", name, n)
		}
		var err error
		switch pt.kind {
		case kindCounter:
			if err = writeFamilyHeader(w, name, pt.name, "counter"); err == nil {
				_, err = fmt.Fprintf(w, "%s %d\n", name, pt.c.Value())
			}
		case kindGauge:
			if err = writeFamilyHeader(w, name, pt.name, "gauge"); err == nil {
				_, err = fmt.Fprintf(w, "%s %g\n", name, pt.g.Value())
			}
		case kindHistogram:
			err = writePromHistogram(w, name, pt.name, pt.h)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeFamilyHeader writes the metadata lines of one exposition
// family: a `# HELP` line when the raw (dotted) name has a catalog
// entry, then the `# TYPE` line.
func writeFamilyHeader(w io.Writer, family, rawName, promType string) error {
	if mi, ok := LookupMetricInfo(rawName); ok && mi.Help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", family, promHelpEscape(mi.Help)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", family, promType)
	return err
}

// writePromHistogram emits one histogram family. The obsv histogram's
// log2 bucket i counts observations v with bits.Len64(v) == i, i.e. the
// value range [2^(i-1), 2^i - 1] (bucket 0 holds exactly v == 0), so the
// cumulative le bound of bucket i is 2^i - 1.
func writePromHistogram(w io.Writer, name, rawName string, h *Histogram) error {
	if err := writeFamilyHeader(w, name, rawName, "histogram"); err != nil {
		return err
	}
	var cum int64
	top := 0
	counts := make([]int64, histBuckets)
	for i := 0; i < histBuckets; i++ {
		counts[i] = h.buckets[i].Load()
		if counts[i] > 0 {
			top = i
		}
	}
	for i := 0; i <= top; i++ {
		cum += counts[i]
		le := int64(1)<<uint(i) - 1 // 0, 1, 3, 7, 15, ...
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		name, h.Count(), name, h.sum.Load(), name, h.Count())
	return err
}
