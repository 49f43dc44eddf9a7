package main

import (
	"testing"
	"time"
)

// TestSweepBatchServesReferences runs one batch on a fresh service, with
// its two clients and two workers, untraced and traced. Every request
// must come back with its reference payload. Run it under -race: the
// clients, the workers and the run's ledger share state.
func TestSweepBatchServesReferences(t *testing.T) {
	refs, _, err := sweepRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		r := newRun("sweep-closed", 1, time.Second, traced, t.TempDir())
		r.cal.parallel = sweepWorkers
		reqs, distinct := batchRequests(1, 0)
		if _, err := r.sweepBatch(refs, reqs, distinct, traced); err != nil {
			t.Fatal(err)
		}
		if r.attempted != sweepBatch || r.failed != 0 {
			t.Errorf("traced=%v: %d of %d requests failed: %v", traced, r.failed, r.attempted, r.problems)
		}
		if traced && median(r.layer["sweep.executions"]) < float64(distinct) {
			t.Errorf("%v executions for %d distinct cells", r.layer["sweep.executions"], distinct)
		}
	}
}
