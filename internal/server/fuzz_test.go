package server

import (
	"bytes"
	"net/http/httptest"
	"slices"
	"testing"

	"repro/internal/core"
)

// FuzzRequestDecode feeds arbitrary bytes through the request decoding
// and validation of /v1/estimate, each /v1/estimate:batch item and
// /v1/flow, without running the request. Nothing may panic, and every
// spec a validator accepts must be runnable: at most maxVectors
// vectors, a known estimator or flow, and a positive seed.
func FuzzRequestDecode(f *testing.F) {
	for _, seed := range []string{
		`{"circuit":"cmp8"}`,
		`{"circuit":"cmp8","estimator":"packed","vectors":256,"seed":3,"p1":0.3}`,
		`{"blif":".model t\n.inputs a\n.outputs b\n.names a b\n1 1\n.end\n","estimator":"simulated"}`,
		`{"items":[{"circuit":"alu4"},{"circuit":"dec5","estimator":"bogus"}],"timeout_ms":50}`,
		`{"circuit":"cla8","flow":"lowpower","incremental":true,"verify":false,"bdd_max_nodes":20000}`,
		`{"circuit":"cmp8","vectors":70000,"seed":-1}`,
		`{"flow":"area","seed":-9}`,
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
		}
	})
}
