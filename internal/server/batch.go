package server

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/obsv/trace"
)

// POST /v1/estimate:batch — many estimates, one round trip.
//
// A batch is K independent EstimateRequest items under one envelope
// deadline. Each item is validated and resolved on its own: a bad
// circuit or option produces a per-item error entry, never a failed
// batch. Items are deduplicated by result-cache key before any work is
// scheduled — asking for the same circuit/options twice in one batch
// costs one computation — and distinct items run concurrently on the
// shared worker pool through the same cache/coalesce/compute pipeline
// as /v1/estimate, so a batch coalesces with identical singleton
// requests in flight and its results land in the shared response cache.
//
// The envelope itself is never cached (its composition is arbitrary);
// each item body is bit-identical to what /v1/estimate returns for the
// same request. Item-level timeout_ms is ignored, though a negative one
// fails its item as on /v1/estimate: the envelope timeout_ms (clamped to
// MaxTimeout, DefaultTimeout when absent) governs the whole batch.

// BatchRequest is the /v1/estimate:batch envelope.
type BatchRequest struct {
	// Items holds up to Config.MaxBatchItems estimate requests.
	Items []EstimateRequest `json:"items"`
	// TimeoutMS bounds the whole batch; per-item timeout_ms is ignored.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// BatchItemResponse reports one item's outcome. OK items carry the
// byte-identical /v1/estimate body in Result plus its cache disposition;
// failed items carry the status and error /v1/estimate would have
// returned.
type BatchItemResponse struct {
	OK       bool            `json:"ok"`
	Status   int             `json:"status"`
	Cache    string          `json:"cache,omitempty"`
	Degraded bool            `json:"degraded,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// BatchResponse is the /v1/estimate:batch body: one entry per request
// item, in request order.
type BatchResponse struct {
	Items []BatchItemResponse `json:"items"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Items) == 0 {
		writeError(w, badRequest("batch has no items"))
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		writeError(w, badRequest("batch has %d items, maximum is %d", len(req.Items), s.cfg.MaxBatchItems))
		return
	}
	if err := checkLimits(0, 0, req.TimeoutMS); err != nil {
		writeError(w, err)
		return
	}
	s.reg.Counter("server.batch.items").Add(int64(len(req.Items)))

	ctx, cancel := context.WithTimeout(r.Context(), s.timeoutFor(req.TimeoutMS))
	defer cancel()

	// Validate and resolve every item up front (parse/levelize amortized
	// by the shared network cache), folding duplicates: one work unit per
	// distinct result-cache key, fanned back out to every item index that
	// asked for it.
	type workUnit struct {
		ent     *netEntry
		spec    estimateSpec
		indices []int
	}
	out := make([]BatchItemResponse, len(req.Items))
	units := make(map[string]*workUnit)
	order := make([]*workUnit, 0, len(req.Items))
	for i, item := range req.Items {
		spec, err := s.validateEstimate(item)
		if err == nil {
			var ent *netEntry
			ent, err = s.resolveNetwork(ctx, spec.ref)
			if err == nil {
				key := estimateKey(ent.hash, spec)
				u, ok := units[key]
				if !ok {
					u = &workUnit{ent: ent, spec: spec}
					units[key] = u
					order = append(order, u)
				} else {
					s.reg.Counter("server.batch.dedup").Inc()
				}
				u.indices = append(u.indices, i)
				continue
			}
		}
		out[i] = BatchItemResponse{OK: false, Status: errorStatus(err), Error: err.Error()}
		s.reg.Counter("server.batch.item_errors").Inc()
	}

	var wg sync.WaitGroup
	for _, u := range order {
		wg.Add(1)
		go func(u *workUnit) {
			defer wg.Done()
			res, disp, err := s.estimateResult(ctx, time.Time{}, "batch", u.ent, u.spec)
			var item BatchItemResponse
			if err != nil {
				item = BatchItemResponse{OK: false, Status: errorStatus(err), Error: err.Error()}
				s.reg.Counter("server.batch.item_errors").Add(int64(len(u.indices)))
			} else {
				item = BatchItemResponse{OK: true, Status: http.StatusOK, Cache: disp,
					Degraded: res.degraded, Result: json.RawMessage(res.body)}
			}
			for _, i := range u.indices {
				out[i] = item
			}
		}(u)
	}
	wg.Wait()

	_, esp := trace.Start(r.Context(), "encode")
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(BatchResponse{Items: out})
	esp.End()
}
