package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"pacc/internal/sweep"
)

// Limits on one POST /v1/submit. A body over maxSubmitBody is refused
// with 413; a batch whose explicit requests plus grid cells exceed
// maxSubmitRequests is refused with 400 before the grid is expanded.
const (
	maxSubmitBody     = 16 << 20
	maxSubmitRequests = 1 << 16
)

// submitRequest is the POST /v1/submit body: explicit requests, an
// expandable grid, or both.
type submitRequest struct {
	Requests []sweep.Request `json:"requests,omitempty"`
	Grid     *sweep.Grid     `json:"grid,omitempty"`
}

// submitItem is one request's outcome in the batch response. Status is
// "completed", "shed" (typed admission rejection — overload, quota, a
// recovering or draining daemon; retry later, possibly against a
// restarted daemon), or "failed" (terminal: quarantined, invalid).
type submitItem struct {
	Key    string          `json:"key,omitempty"`
	Status string          `json:"status"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

type submitResponse struct {
	Items []submitItem `json:"items"`
}

// classify maps the service's typed errors onto wire statuses. A
// ShutdownError is shed, not failed: nothing about the request is wrong,
// and a resubmit after the daemon restarts dedupes against the store.
// Same for RecoveringError (replay in progress) and KilledError.
func classify(err error) string {
	var over *sweep.OverloadedError
	var quota *sweep.QuotaExceededError
	var down *sweep.ShutdownError
	var rec *sweep.RecoveringError
	var killed *sweep.KilledError
	if errors.As(err, &over) || errors.As(err, &quota) ||
		errors.As(err, &down) || errors.As(err, &rec) || errors.As(err, &killed) {
		return "shed"
	}
	return "failed"
}

// shedStatus maps a shed error onto the HTTP status the whole response
// should carry when every item in the batch was shed: 429 for
// per-client backpressure (overload, quota), 503 for daemon-level
// unavailability (draining, recovering, killed). The second return is
// the Retry-After value in seconds — queue drain is fast, journal
// replay and drains take longer.
func shedStatus(err error) (int, string, bool) {
	var over *sweep.OverloadedError
	var quota *sweep.QuotaExceededError
	if errors.As(err, &over) || errors.As(err, &quota) {
		return http.StatusTooManyRequests, "1", true
	}
	var down *sweep.ShutdownError
	var rec *sweep.RecoveringError
	var killed *sweep.KilledError
	if errors.As(err, &down) || errors.As(err, &rec) || errors.As(err, &killed) {
		return http.StatusServiceUnavailable, "5", true
	}
	return 0, "", false
}

// newMux builds the daemon's HTTP API over svc. Factored out of serve
// so tests drive it through httptest.
func newMux(svc *sweep.Service) *http.ServeMux {
	mux := http.NewServeMux()

	// Liveness: the process is up and serving HTTP. Deliberately
	// ignorant of service state — a recovering or draining daemon is
	// alive and must not be restarted by an orchestrator.
	livez := func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	}
	mux.HandleFunc("/livez", livez)
	mux.HandleFunc("/healthz", livez) // backwards-compatible alias

	// Readiness: whether new submissions will be accepted right now.
	// 503 "recovering" until journal replay finishes, 503 "draining"
	// once shutdown begins, 200 "ready" in between — so load balancers
	// hold traffic while the daemon settles its crash debts.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		state := svc.State()
		if state != "ready" {
			w.Header().Set("Retry-After", "5")
			http.Error(w, state, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ready")
	})

	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := svc.WriteStats(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})

	mux.HandleFunc("/v1/query", handleQuery(svc))

	mux.HandleFunc("/v1/watch", handleWatch(svc))

	mux.HandleFunc("/v1/submit", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
		if err != nil {
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				http.Error(w, fmt.Sprintf("request body over %d bytes", maxSubmitBody), http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, "reading request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		var body submitRequest
		if err := json.Unmarshal(raw, &body); err != nil {
			http.Error(w, "malformed request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		cells, ok := 0, true
		if body.Grid != nil {
			cells, ok = body.Grid.Cells(maxSubmitRequests)
		}
		if !ok || len(body.Requests) > maxSubmitRequests-cells {
			http.Error(w, fmt.Sprintf("batch over %d requests", maxSubmitRequests), http.StatusBadRequest)
			return
		}
		reqs := body.Requests
		if body.Grid != nil {
			reqs = append(reqs, body.Grid.Expand()...)
		}
		if len(reqs) == 0 {
			http.Error(w, "empty batch: provide requests and/or a grid", http.StatusBadRequest)
			return
		}

		tickets, errs := svc.SubmitBatch(reqs)
		resp := submitResponse{Items: make([]submitItem, len(reqs))}
		// When every item is shed the response itself is a shed: 429 or
		// 503 plus Retry-After, so plain HTTP clients back off without
		// parsing the body. Daemon-level causes (503) win over
		// per-client ones (429) if the batch mixes them.
		allShed := true
		shedCode, retryAfter := 0, ""
		noteShed := func(err error) {
			code, after, ok := shedStatus(err)
			if !ok {
				allShed = false
				return
			}
			if code > shedCode {
				shedCode, retryAfter = code, after
			}
		}
		for i := range reqs {
			item := &resp.Items[i]
			if errs[i] != nil {
				item.Status = classify(errs[i])
				item.Error = errs[i].Error()
				noteShed(errs[i])
				continue
			}
			item.Key = tickets[i].Key().String()
			payload, err := tickets[i].Wait(r.Context())
			if err != nil {
				item.Status = classify(err)
				item.Error = err.Error()
				noteShed(err)
				continue
			}
			item.Status = "completed"
			item.Result = json.RawMessage(payload)
			allShed = false
		}
		w.Header().Set("Content-Type", "application/json")
		if allShed && shedCode != 0 {
			w.Header().Set("Retry-After", retryAfter)
			w.WriteHeader(shedCode)
		}
		json.NewEncoder(w).Encode(resp)
	})

	return mux
}
