// Package experiments regenerates every quantitative claim of the survey
// (the "tables and figures" of this reproduction): one function per
// experiment E1..E18, each returning a formatted table. cmd/experiments
// prints them all; bench_test.go wraps each in a benchmark.
//
// The experiment index lives in DESIGN.md; measured-vs-paper numbers are
// recorded in EXPERIMENTS.md.
package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// tableJSON is the machine-readable form of a Table; the field set is the
// schema of the "tables" entries in the cmd/experiments -json report.
type tableJSON struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// MarshalJSON renders the table as a JSON object with lowercase keys.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableJSON{
		ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows, Notes: t.Notes,
	})
}

// Experiment pairs an ID with its generator.
type Experiment struct {
	ID  string
	Run func() (*Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", E1PowerBreakdown},
		{"E2", E2Reordering},
		{"E3", E3Sizing},
		{"E4", E4DontCare},
		{"E4b", ProbabilityAblation},
		{"E5", E5PathBalance},
		{"E6", E6Factoring},
		{"E7", E7TechMap},
		{"E8", E8Encoding},
		{"E9", E9BusInvert},
		{"E10", E10Residue},
		{"E11", E11Retiming},
		{"E12", E12GatedClock},
		{"E13", E13Precomputation},
		{"E14", E14ArchModels},
		{"E15", E15Behavioral},
		{"E16", E16Software},
		{"E17", E17Incremental},
		{"E18", E18BDDSynth},
	}
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
func d(v int) string       { return fmt.Sprintf("%d", v) }
