package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

type declaredMetric struct{ Name, Unit, Better string }

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no repository around the benchmark: %v", err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// Every workload runs at smoke-test scale, passes its checks and prints
// exactly the metrics BENCHMARK.json declares, with their units: the
// end-to-end ones, and with tracing the per-layer ones.
func TestQuickRunPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("drives servers")
	}
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, lpbench runs %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %s, lpbench %s", i, w.Name, workloadNames[i])
		}
	}
	start := time.Now()
	for _, trace := range []bool{false, true} {
		declared := bj.EndToEnd
		if trace {
			declared = bj.PerLayer
		}
		for _, name := range workloadNames {
			res, err := runWorkload(name, 1, 0, trace, true, filepath.Join(t.TempDir(), "trace.json"), io.Discard)
			if err != nil {
				t.Fatalf("%s (trace %t): %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %t): correct=%t attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s (trace %t): %d metrics, BENCHMARK.json declares %d", name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %t): metric %s = %+v, declared unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
	t.Logf("smoke run took %v", time.Since(start))
}

// The per-layer list in BENCHMARK.json is the one lpbench builds.
func TestPerLayerListMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	pl := perLayer()
	if len(pl) != len(bj.PerLayer) {
		t.Fatalf("lpbench has %d per-layer metrics, BENCHMARK.json %d", len(pl), len(bj.PerLayer))
	}
	for i, m := range pl {
		if want := bj.PerLayer[i]; m.name != want.Name || m.unit != want.Unit || m.better != want.Better {
			t.Errorf("per-layer metric %d: lpbench %+v, BENCHMARK.json %+v", i, m, want)
		}
	}
}
