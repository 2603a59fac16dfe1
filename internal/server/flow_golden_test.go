package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// bddmuxCircuits are the flow benchmark's named circuits with the BDD
// budget it serves them under: 0 (the pass's own 1M-node default) for the
// narrow ones, 20,000 nodes for the wide ones.
var bddmuxCircuits = []struct {
	name   string
	budget int
}{
	{"alu4", 0}, {"cla8", 0}, {"cmp8", 0}, {"dec5", 0},
	{"mult4", 0}, {"mult5", 0}, {"par16", 0}, {"radd8", 0},
	{"cmp16", 20000}, {"radd16", 20000}, {"mult6", 20000}, {"mux16", 20000},
}

// TestBddmuxFlowsMatchGolden pins the whole /v1/flow body of the bddmux
// flow (strash, bddsynth, sweep) on every named circuit above, at seed 1,
// with full and incremental measurement: every step's snapshot and the
// final structural hash. The bddsynth pass's start order, sifting and
// accept rule all show here, so a change to any of them that alters a
// served flow fails this test. testdata/bddmux_flows.golden is rewritten
// by -update; only do that for an intended change.
func TestBddmuxFlowsMatchGolden(t *testing.T) {
	h := New(Config{}).Handler()
	var buf bytes.Buffer
	for _, c := range bddmuxCircuits {
		for _, incr := range []bool{false, true} {
			req := fmt.Sprintf(`{"circuit":%q,"flow":"bddmux","seed":1,"bdd_max_nodes":%d,"incremental":%v}`, c.name, c.budget, incr)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/flow", strings.NewReader(req)))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d: %s", req, rec.Code, rec.Body.Bytes())
			}
			fmt.Fprintf(&buf, "%s\n%s", req, rec.Body.Bytes())
		}
	}

	golden := filepath.Join("testdata", "bddmux_flows.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("bddmux flow bodies differ from %s:\n%s", golden, firstDiff(want, buf.Bytes()))
	}
}
