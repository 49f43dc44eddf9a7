package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"pacc/internal/collective"
	"pacc/internal/fault"
	"pacc/internal/mpi"
	"pacc/internal/obs"
)

// RunFunc executes one request and returns its result payload. The
// production runner is Simulate; tests substitute crashing, hanging or
// counting runners. A RunFunc must be deterministic in req — the whole
// dedupe story rests on identical requests producing identical bytes —
// and must honor ctx (cancellation, deadline) promptly.
type RunFunc func(ctx context.Context, req Request) ([]byte, error)

// Result is the decoded form of a stored result payload.
type Result struct {
	Schema    string          `json:"schema"`
	Key       string          `json:"key"`
	Op        string          `json:"op"`
	ElapsedUs float64         `json:"elapsed_us"`
	EnergyJ   float64         `json:"energy_j"`
	Metrics   json.RawMessage `json:"metrics"`
}

// ResultSchema is the schema tag of result payloads.
const ResultSchema = "pacc.sweep.result/v1"

// DecodeResult parses a result payload produced by Simulate.
func DecodeResult(payload []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(payload, &r); err != nil {
		return nil, fmt.Errorf("sweep: malformed result payload: %w", err)
	}
	if r.Schema != ResultSchema {
		return nil, fmt.Errorf("sweep: result schema %q, want %q", r.Schema, ResultSchema)
	}
	return &r, nil
}

// Simulate runs the request's simulation to completion and returns the
// deterministic result payload: elapsed virtual time, cluster energy,
// and the full metrics snapshot of an attached obs bus. Identical
// requests produce byte-identical payloads; ctx aborts a running
// simulation between events with a typed mpi.CanceledError.
func Simulate(ctx context.Context, req Request) ([]byte, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	// Validate has resolved the op and the mode.
	call, _ := collective.Op(req.Op)
	mode, _ := collective.ParsePowerMode(req.Mode)
	cfg := mpi.DefaultConfig()
	cfg.NProcs = req.Procs
	cfg.PPN = req.PPN
	cfg.Topo.Nodes = req.Procs / req.PPN
	if req.Fault != "" {
		spec, err := fault.Parse(req.Fault)
		if err != nil {
			return nil, err
		}
		if req.Seed != 0 {
			spec.Seed = req.Seed
		}
		cfg.Fault = spec
	}
	iters := req.Iters
	if iters == 0 {
		iters = 1
	}
	opt := collective.Options{Power: mode, Plan: req.Plan}

	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	bus := obs.NewBus(w.Engine())
	w.AttachObs(bus)
	// A crash-stop spec kills ranks permanently and the plain barrier
	// has no failure path: run iterations back-to-back instead (the
	// resilient collective synchronizes survivors itself).
	skipBarrier := cfg.Fault != nil && len(cfg.Fault.Crashes) > 0
	var callErr error
	w.Launch(func(r *mpi.Rank) {
		c := mpi.CommWorld(r)
		for i := 0; i < iters; i++ {
			if !skipBarrier {
				collective.Barrier(c)
			}
			if err := call(c, req.Bytes, opt); err != nil {
				if callErr == nil {
					callErr = err
				}
				return
			}
		}
	})
	// A rank whose call fails leaves the loop and its peers then block in
	// the next barrier: report the rank's error alongside the deadlock.
	elapsed, runErr := w.RunContext(ctx)
	if err := errors.Join(callErr, runErr); err != nil {
		return nil, err
	}
	var metrics bytes.Buffer
	if err := bus.WriteMetricsJSON(&metrics); err != nil {
		return nil, err
	}
	payload, err := json.Marshal(Result{
		Schema:    ResultSchema,
		Key:       req.Key().String(),
		Op:        req.Op,
		ElapsedUs: elapsed.Micros(),
		EnergyJ:   w.Station().EnergyJoules(),
		Metrics:   json.RawMessage(metrics.Bytes()),
	})
	if err != nil {
		return nil, err
	}
	return payload, nil
}
