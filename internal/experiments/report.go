package experiments

import (
	"encoding/json"
	"io"
	"runtime"
)

// Report is the machine-readable output of a cmd/experiments run: every
// regenerated table plus the observability registry's exported metrics and
// the Go version that produced them. The schema is documented in DESIGN.md ("Observability").
type Report struct {
	Tables    []*Table               `json:"tables"`
	Failures  []Failure              `json:"failures,omitempty"`
	Metrics   map[string]interface{} `json:"metrics,omitempty"`
	GoVersion string                 `json:"go_version"`
}

// Failure records an experiment that produced no table — an error, a
// recovered panic, or a cancellation skip — so a partial run is still an
// honest report: consumers see which tables are missing and why instead
// of inferring it from absence.
type Failure struct {
	ID      string `json:"id"`
	Error   string `json:"error"`
	Skipped bool   `json:"skipped,omitempty"`
}

// NewReport creates an empty report stamped with the running Go version.
func NewReport() *Report {
	return &Report{GoVersion: runtime.Version()}
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
