package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/experiments"
	"repro/internal/server"
)

// The golden holds every table; its E1-E16 part must equal the root
// experiments_output.txt, which predates E17 and E18.
func TestGoldenExtendsExperimentsOutput(t *testing.T) {
	root, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Skipf("no repository around the benchmark: %v", err)
	}
	if !strings.HasPrefix(goldenText, string(root)) {
		t.Fatal("golden does not start with experiments_output.txt")
	}
	rest := goldenText[len(root):]
	if !strings.HasPrefix(rest, "== E17:") || !strings.Contains(rest, "\n== E18:") {
		t.Errorf("golden after experiments_output.txt should be E17 and E18, got %.40q", rest)
	}
	tables := goldenTables()
	for _, ex := range experiments.All() {
		if !strings.HasPrefix(tables[ex.ID], "== "+ex.ID+": ") {
			t.Errorf("golden has no table %s", ex.ID)
		}
	}
}

// serve sends one estimate to a fresh server and returns the body.
func serve(t *testing.T, in *instance, q server.EstimateRequest) []byte {
	t.Helper()
	rep, err := in.post("/v1/estimate", mustJSON(q))
	if err != nil {
		t.Fatal(err)
	}
	return rep.body
}

// On a handful of circuits the truth-table and scalar oracles agree with
// the served totals, and a perturbed total is rejected.
func TestOraclesAgreeWithServedTotals(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a server")
	}
	in, err := startInstance()
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	g := newGen(5)
	var reqs []server.EstimateRequest
	for _, c := range []string{"alu4", "cmp8", "dec5", "mult4", "par16"} {
		for _, est := range []string{"exact", "packed", "propagated", "simulated"} {
			q := g.estimate("narrow", est)
			q.Circuit = c
			reqs = append(reqs, q)
		}
	}
	reqs = append(reqs, g.estimate("upload", "exact"), g.estimate("upload", "packed"))
	for _, q := range reqs {
		body := serve(t, in, q)
		if err := checkEstimate(q, body); err != nil {
			t.Errorf("%s: %v", estimateClass(q), err)
			continue
		}
		var resp server.EstimateResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		resp.Power.Total *= 1 + 1e-6
		perturbed, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		if checkTotal(q, perturbed) == nil {
			t.Errorf("%s: the oracle accepted a perturbed total", estimateClass(q))
		}
	}
}

// The word-parallel truth table agrees with logic's scalar TruthTable on
// every primary output.
func TestTruthTableProbabilitiesMatchTruthTable(t *testing.T) {
	for _, c := range []string{"alu4", "cmp8", "dec5", "mult5", "par16"} {
		nw, err := circuits.Named(c)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := truthTableProbabilities(nw)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := nw.TruthTable()
		if err != nil {
			t.Fatal(err)
		}
		rows := float64(uint64(1) << len(nw.PIs()))
		for i, po := range nw.POs() {
			ones := 0
			for _, w := range tt[i] {
				ones += bits.OnesCount64(w)
			}
			if got, want := ps[po], float64(ones)/rows; math.Abs(got-want) > 1e-15 {
				t.Errorf("%s output %d: probability %v, TruthTable gives %v", c, i, got, want)
			}
		}
	}
}

// A flow body that differs from core.RunFlowCtx in one step is rejected.
func TestCheckFlowRejectsAlteredSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a server")
	}
	in, err := startInstance()
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	for _, q := range flowCombos(true) {
		q.Seed = 11
		rep, err := in.post("/v1/flow", mustJSON(q))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkFlow(q, rep.body); err != nil {
			t.Errorf("%s: %v", flowClass(q), err)
		}
		altered := bytes.Replace(rep.body, []byte(`"label":"strash"`), []byte(`"label":"strasH"`), 1)
		if checkFlow(q, altered) == nil {
			t.Errorf("%s: an altered step passed the check", flowClass(q))
		}
	}
}
