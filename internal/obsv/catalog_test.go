package obsv

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestLookupMetricInfoExactAndPattern(t *testing.T) {
	mi, ok := LookupMetricInfo("server.requests")
	if !ok || mi.Type != "counter" || mi.Help == "" {
		t.Fatalf("exact lookup failed: %+v %v", mi, ok)
	}
	mi, ok = LookupMetricInfo("server.http.estimate.latency_us")
	if !ok || mi.Type != "histogram" {
		t.Fatalf("wildcard lookup failed: %+v %v", mi, ok)
	}
	mi, ok = LookupMetricInfo("lpflow.pass.remap.us")
	if !ok || mi.Type != "histogram" {
		t.Fatalf("wildcard pass lookup failed: %+v %v", mi, ok)
	}
	// "*" matches exactly one segment — not zero, not two.
	if _, ok := LookupMetricInfo("server.http.latency_us"); ok {
		t.Fatal("wildcard must not match zero segments")
	}
	if _, ok := LookupMetricInfo("server.http.a.b.latency_us"); ok {
		t.Fatal("wildcard must not match two segments")
	}
	if _, ok := LookupMetricInfo("no.such.metric"); ok {
		t.Fatal("unknown name must miss")
	}
}

// TestCatalogTypesValid pins every catalog row to a legal family type
// and a non-empty, single-line help text.
func TestCatalogTypesValid(t *testing.T) {
	valid := map[string]bool{"counter": true, "gauge": true, "histogram": true}
	names := CatalogNames()
	if len(names) < 20 {
		t.Fatalf("catalog suspiciously small: %d entries", len(names))
	}
	for _, n := range names {
		mi, ok := LookupMetricInfo(strings.ReplaceAll(n, "*", "x"))
		if !ok {
			t.Errorf("catalog name %q does not resolve through LookupMetricInfo", n)
			continue
		}
		if !valid[mi.Type] {
			t.Errorf("catalog %q has invalid type %q", n, mi.Type)
		}
		if mi.Help == "" || strings.ContainsAny(mi.Help, "\n") {
			t.Errorf("catalog %q help must be one non-empty line", n)
		}
	}
}

// TestCatalogTypesMatchRegisteredKinds registers one metric of each
// catalogued server/sim family against a fresh registry and asserts
// the exposition's TYPE lines agree with the catalog's declared types
// — the catalog cannot drift from what the code registers.
func TestCatalogTypesMatchRegisteredKinds(t *testing.T) {
	r := NewRegistry()
	samples := map[string]string{
		"server.requests":                 "counter",
		"server.inflight":                 "gauge",
		"sim.settle":                      "histogram",
		"server.http.estimate.latency_us": "histogram",
		"lpflow.pass.remap.us":            "histogram",
	}
	for name, typ := range samples {
		mi, ok := LookupMetricInfo(name)
		if !ok {
			t.Fatalf("%q missing from catalog", name)
		}
		if mi.Type != typ {
			t.Fatalf("catalog type for %q = %q, registered kind is %q", name, mi.Type, typ)
		}
		switch typ {
		case "counter":
			r.Counter(name).Add(1)
		case "gauge":
			r.Gauge(name).Set(1)
		case "histogram":
			r.Histogram(name).Observe(1)
		}
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for name, typ := range samples {
		san := SanitizeProm(name)
		mi, _ := LookupMetricInfo(name)
		want := "# HELP " + san + " " + mi.Help + "\n# TYPE " + san + " " + typ + "\n"
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing adjacent HELP+TYPE for %s:\nwant %q\nin:\n%s", name, want, out)
		}
	}
}

func TestPromHelpEscape(t *testing.T) {
	if got := promHelpEscape(`back\slash` + "\nnewline"); got != `back\\slash\nnewline` {
		t.Fatalf("promHelpEscape = %q", got)
	}
}

// TestUncataloguedMetricStillExposes checks the degradation path: a
// metric with no catalog row gets a TYPE line but no HELP line.
func TestUncataloguedMetricStillExposes(t *testing.T) {
	r := NewRegistry()
	r.Counter("totally.unknown.metric").Add(3)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE totally_unknown_metric counter\ntotally_unknown_metric 3\n") {
		t.Fatalf("uncatalogued metric missing: %s", out)
	}
	if strings.Contains(out, "# HELP totally_unknown_metric") {
		t.Fatalf("uncatalogued metric must not get a HELP line: %s", out)
	}
}

// TestDesignTableMatchesCatalog keeps DESIGN.md's metric-name table and
// the catalog in lockstep: every name the table lists (a `<name>`
// segment standing for the catalog's "*") is a catalog row, and every
// catalog row is listed.
func TestDesignTableMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "### Metric name catalog")
	if start < 0 {
		t.Fatal("DESIGN.md has no metric name catalog section")
	}
	section := doc[start:]
	if end := strings.Index(section[1:], "\n#"); end >= 0 {
		section = section[:end+1]
	}
	name := regexp.MustCompile("`([^`]+)`")
	placeholder := regexp.MustCompile(`<[a-z]+>`)
	var listed []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.Contains(cells[1], "`") {
			continue
		}
		for _, m := range name.FindAllStringSubmatch(cells[1], -1) {
			listed = append(listed, placeholder.ReplaceAllString(m[1], "*"))
		}
	}
	slices.Sort(listed)
	if want := CatalogNames(); !slices.Equal(listed, want) {
		for _, n := range want {
			if !slices.Contains(listed, n) {
				t.Errorf("catalog row %q missing from DESIGN.md's table", n)
			}
		}
		for _, n := range listed {
			if !slices.Contains(want, n) {
				t.Errorf("DESIGN.md's table lists %q, which has no catalog row", n)
			}
		}
	}
}
