package repro

import (
	"context"
	"os"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/obsv"
)

// goldenPath holds `go run ./cmd/experiments` as the benchmark defined
// it: every table E1-E18 and E4b. The benchmark's reproduce workload
// rejects any run whose tables differ from it.
const goldenPath = "bench/lpbench/testdata/experiments.golden.txt"

// TestExperimentsMatchGolden runs every experiment and requires each
// table to render exactly as in the golden, so `go test ./...` catches
// a table change before the benchmark does.
func TestExperimentsMatchGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, sec := range strings.Split("\n"+string(raw), "\n== ")[1:] {
		id, _, _ := strings.Cut(sec, ":")
		golden[id] = "== " + strings.TrimRight(sec, "\n") + "\n"
	}
	list := experiments.All()
	if len(golden) != len(list) {
		t.Errorf("golden holds %d tables, experiments.All lists %d", len(golden), len(list))
	}
	for _, r := range experiments.RunAllCtx(context.Background(), list, 0, 0) {
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
			continue
		}
		want, ok := golden[r.ID]
		if !ok {
			t.Errorf("%s: no table in %s", r.ID, goldenPath)
			continue
		}
		if got := r.Table.Format(); got != want {
			t.Errorf("%s differs from the golden:\n--- got ---\n%s--- want ---\n%s", r.ID, got, want)
		}
	}
}

// TestSuiteMetricsAreCatalogued runs every experiment with the registry
// enabled and fails on any metric name without a catalog row, as
// `cmd/experiments -json` would export it.
func TestSuiteMetricsAreCatalogued(t *testing.T) {
	reg := obsv.Enable()
	t.Cleanup(obsv.Disable)
	for _, r := range experiments.RunAllCtx(context.Background(), experiments.All(), 0, 0) {
		if r.Err != nil {
			t.Errorf("%s: %v", r.ID, r.Err)
		}
	}
	exported := reg.Export()
	if len(exported) == 0 {
		t.Fatal("the suite registered no metrics")
	}
	for name := range exported {
		if _, ok := obsv.LookupMetricInfo(name); !ok {
			t.Errorf("the experiment suite emits %q, which has no catalog row", name)
		}
	}
}
