package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"repro/internal/bdd"
	"repro/internal/core"
)

// FuzzRequestDecode feeds arbitrary bytes through the request decoding
// and validation of /v1/estimate, each /v1/estimate:batch item and
// /v1/flow, without running the request. Nothing may panic, and every
// spec a validator accepts must be runnable: at most maxVectors
// vectors, a known estimator or flow, a positive seed and no negative
// budget or timeout.
func FuzzRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"circuit":"cmp8"}`,
		`{"circuit":"cmp8","estimator":"packed","vectors":256,"seed":3,"p1":0.3}`,
		`{"blif":".model t\n.inputs a\n.outputs b\n.names a b\n1 1\n.end\n","estimator":"simulated"}`,
		`{"items":[{"circuit":"alu4"},{"circuit":"dec5","estimator":"bogus"}],"timeout_ms":50}`,
		`{"circuit":"cla8","flow":"lowpower","incremental":true,"verify":false,"bdd_max_nodes":20000}`,
		`{"circuit":"cmp8","vectors":70000,"seed":-1}`,
		`{"flow":"area","seed":-9}`,
		`{"circuit":"mult5","estimator":"exact","bdd_max_nodes":-1,"bdd_max_steps":-1,"timeout_ms":-1}`,
		`{"unknown":1}`,
		`[1,2]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	s := New(Config{})
	decode := func(body []byte, dst any) error {
		r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
		return s.decodeJSON(httptest.NewRecorder(), r, dst)
	}
	checkEstimate := func(t *testing.T, req EstimateRequest) {
		spec, err := s.validateEstimate(req)
		if err != nil {
			return
		}
		if spec.vectors <= 0 || spec.vectors > maxVectors {
			t.Fatalf("accepted %d vectors (max %d): %+v", spec.vectors, maxVectors, req)
		}
		if !slices.Contains(estimators, spec.estimator) {
			t.Fatalf("accepted unknown estimator %q", spec.estimator)
		}
		if spec.seed <= 0 {
			t.Fatalf("accepted seed %d", spec.seed)
		}
		checkLimitsHeld(t, spec.budget, spec.timeout)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var est EstimateRequest
		if decode(body, &est) == nil {
			checkEstimate(t, est)
		}
		var batch BatchRequest
		if decode(body, &batch) == nil {
			for _, item := range batch.Items {
				checkEstimate(t, item)
			}
		}
		var flow FlowRequest
		if decode(body, &flow) == nil {
			spec, err := s.validateFlow(flow)
			if err != nil {
				return
			}
			if std, ok := core.StandardFlows()[flow.Flow]; !ok || spec.flow.Name != std.Name {
				t.Fatalf("accepted unknown flow %q", flow.Flow)
			}
			if spec.seed <= 0 {
				t.Fatalf("accepted seed %d", spec.seed)
			}
			checkLimitsHeld(t, spec.budget, spec.timeout)
		}
	})
}

// checkLimitsHeld fails on an accepted spec whose budget or timeout is
// negative: bdd.Budget reads a negative limit as none.
func checkLimitsHeld(t *testing.T, b bdd.Budget, timeout time.Duration) {
	t.Helper()
	if b.MaxNodes < 0 || b.MaxSteps < 0 || timeout <= 0 {
		t.Fatalf("accepted budget %+v, timeout %v", b, timeout)
	}
}

// FuzzEstimateUpload sends arbitrary BLIF text through the whole
// /v1/estimate handler as {"blif":…,"estimator":"propagated"}: decode,
// resolve (parse, check, structural hash), estimate and encode. Nothing
// may panic, and a malformed upload is the client's fault: no input may
// be answered with a server error other than 504 (deadline).
func FuzzEstimateUpload(f *testing.F) {
	for _, seed := range []string{
		".model t\n.inputs a\n.outputs b\n.names a b\n1 1\n.end\n",
		".model c\n.inputs a b c\n.outputs y z\n.names a b n\n11 1\n.names n c y\n1- 1\n-1 1\n.names z\n1\n.end\n",
		".model cnt\n.inputs en\n.outputs q\n.latch d q 0\n.names en q d\n01 1\n10 1\n.end\n",
		".model loop\n.inputs a\n.outputs b\n.names a c b\n11 1\n.names b c\n0 1\n.end\n",
		".model w\n.inputs a \\\n b\n.outputs o\n.names a b o\n00 0\n.end\n",
		".model u\n.inputs a\n.outputs a\n.end\n",
		".model x\n.outputs o\n.latch o o 2\n.end\n",
		".names a b\n1 1\n",
		".model",
		"",
	} {
		f.Add(seed)
	}
	h := New(Config{DefaultTimeout: 10 * time.Second}).Handler()
	f.Fuzz(func(t *testing.T, blif string) {
		body, err := json.Marshal(EstimateRequest{circuitRef: circuitRef{BLIF: blif}, Estimator: "propagated"})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/estimate", bytes.NewReader(body)))
		if rec.Code >= 500 && rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("upload answered %d: %s\nblif: %q", rec.Code, rec.Body.Bytes(), blif)
		}
	})
}
