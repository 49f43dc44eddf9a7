package main

import (
	"context"
	"testing"

	"pacc"
	"pacc/internal/collective"
	"pacc/internal/sweep"
)

// The reference digests are only useful if the same input digests the
// same way every time. Each case runs a small input twice in one process.

func TestSimDigestStable(t *testing.T) {
	j := job{name: "allreduce_rd", procs: 16, ppn: 8, bytes: 4 << 10, iters: 2, call: collective.AllreduceRD}
	var got [2]string
	for i := range got {
		sr, err := simulate(nil, 0, j, i == 1, false)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = sr.out.digest()
	}
	if got[0] != got[1] {
		t.Errorf("digests differ between runs (second with a bus attached): %s vs %s", got[0], got[1])
	}
}

func TestExperimentDigestStable(t *testing.T) {
	var got [2]string
	for i := range got {
		res, err := pacc.RunExperiment("fig2b", paperScale)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = experimentDigest(res)
	}
	if got[0] != got[1] {
		t.Errorf("fig2b digests differ between runs: %s vs %s", got[0], got[1])
	}
}

func TestSweepPayloadStable(t *testing.T) {
	req := sweepGrid[0]
	a, err := sweep.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sweep.Simulate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if newDigest().str(string(a)).sum() != newDigest().str(string(b)).sum() {
		t.Error("sweep payload digests differ between runs")
	}
}

func TestDigestSeparatesFields(t *testing.T) {
	// Length prefixes keep ("ab","c") and ("a","bc") apart.
	if newDigest().str("ab").str("c").sum() == newDigest().str("a").str("bc").sum() {
		t.Error("string boundaries are not part of the digest")
	}
	if newDigest().f64(0).sum() == newDigest().f64(0).f64(0).sum() {
		t.Error("a different number of values digests the same")
	}
}

func TestBatchRequestsDeterministic(t *testing.T) {
	a, da := batchRequests(7, 3)
	b, db := batchRequests(7, 3)
	if da != db || len(a) != sweepBatch || len(b) != sweepBatch {
		t.Fatalf("distinct %d vs %d, lengths %d, %d", da, db, len(a), len(b))
	}
	keys := map[sweep.Key]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between draws of one seed", i)
		}
		keys[a[i].Key()] = true
	}
	if len(keys) != da {
		t.Errorf("%d distinct keys, batchRequests said %d", len(keys), da)
	}
	// About a third repeat an earlier cell.
	if rep := sweepBatch - da; rep < sweepBatch/6 || rep > sweepBatch/2 {
		t.Errorf("%d of %d requests repeat a cell, want about a third", rep, sweepBatch)
	}
	if c, _ := batchRequests(8, 3); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("another seed draws the same requests")
	}
}
