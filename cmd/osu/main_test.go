package main

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"pacc"
	"pacc/internal/collective"
)

// call looks an op up the way main does, without -verify.
func call(t *testing.T, name string) collective.OpFunc {
	t.Helper()
	c, err := lookupOp(name, false)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestVerifyOnlyForVerifyingOps: -verify must refuse an op whose entry
// point ignores the Verify option (allreduce is imperative and checks
// nothing) instead of printing "data verification: on" over an
// unverified run, and must name the ops it does support.
func TestVerifyOnlyForVerifyingOps(t *testing.T) {
	for _, name := range []string{"allreduce", "alltoall", "bcast", "barrier", "bw"} {
		_, err := lookupOp(name, true)
		if err == nil {
			t.Errorf("lookupOp(%q, verify) accepted an op that ignores Verify", name)
			continue
		}
		if !strings.Contains(err.Error(), "allreduce_ft, allreduce_rd, allreduce_topo") {
			t.Errorf("lookupOp(%q, verify) = %v, want the supported ops named", name, err)
		}
	}
	for _, name := range []string{"allreduce_ft", "allreduce_rd", "allreduce_topo"} {
		if _, err := lookupOp(name, true); err != nil {
			t.Errorf("lookupOp(%q, verify): %v", name, err)
		}
	}
}

// TestOpNamesSortedAndComplete: osu runs exactly the collective
// catalogue's ops plus its own barrier, bw and latency microbenchmarks,
// and names exactly those when it rejects one.
func TestOpNamesSortedAndComplete(t *testing.T) {
	names := opNames()
	for _, want := range []string{"alltoall", "bcast", "barrier", "latency", "bw", "reduce"} {
		if !strings.Contains(names, want) {
			t.Errorf("opNames() missing %q: %s", want, names)
		}
	}
	parts := strings.Split(names, ", ")
	for i := 1; i < len(parts); i++ {
		if parts[i] < parts[i-1] {
			t.Fatalf("opNames not sorted: %s", names)
		}
	}
	want := append(collective.OpNames(), "barrier", "bw", "latency")
	sort.Strings(want)
	if names != strings.Join(want, ", ") {
		t.Fatalf("opNames() = %s, want %s", names, strings.Join(want, ", "))
	}
	for _, name := range want {
		if _, err := lookupOp(name, false); err != nil {
			t.Errorf("lookupOp(%q): %v", name, err)
		}
	}
	for _, bad := range []string{"", "bogus", "alltoall_pairwise", "allreduce_topo_checked"} {
		if _, err := lookupOp(bad, false); err == nil {
			t.Errorf("lookupOp(%q) accepted", bad)
		}
	}
}

// TestMeasureSmoke exercises the measurement loop end to end at a small
// size.
func TestMeasureSmoke(t *testing.T) {
	lat, watts, _, err := measure(context.Background(), pacc.DefaultConfig(), call(t, "bcast"), 4096,
		16, 8, pacc.NoPower, pacc.CollectiveOptions{}, "polling", 2, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 || watts <= 0 {
		t.Fatalf("degenerate measurement: %v us, %v W", lat, watts)
	}
	if _, _, _, err := measure(context.Background(), pacc.DefaultConfig(), call(t, "bcast"), 4096,
		15, 8, pacc.NoPower, pacc.CollectiveOptions{}, "polling", 1, false, false, false); err == nil {
		t.Error("procs not multiple of ppn accepted")
	}
	if _, _, _, err := measure(context.Background(), pacc.DefaultConfig(), call(t, "bcast"), 4096,
		16, 8, pacc.NoPower, pacc.CollectiveOptions{}, "warp", 1, false, false, false); err == nil {
		t.Error("bogus progression accepted")
	}
}

// TestMeasureHonorsTimeout: an already-expired context aborts the run
// with the typed cancellation error instead of burning CPU.
func TestMeasureHonorsTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := measure(ctx, pacc.DefaultConfig(), call(t, "bcast"), 4096,
		16, 8, pacc.NoPower, pacc.CollectiveOptions{}, "polling", 2, false, false, false)
	var ce *pacc.CanceledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *pacc.CanceledError", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err chain %v does not reach context.Canceled", err)
	}
}

// TestMeasureReportsRankErrorBehindDeadlock: under a memory burst a
// rank's verified allreduce_rd fails its checksum and leaves the loop,
// so its peers block in the next barrier. The returned error must carry
// that rank's integrity error, not only the deadlock it caused.
func TestMeasureReportsRankErrorBehindDeadlock(t *testing.T) {
	cfg := pacc.DefaultConfig()
	spec, err := pacc.ParseFaultSpec("seed=3;memburst=*@0.2:50us+1ms")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Fault = spec
	_, _, _, err = measure(context.Background(), cfg, call(t, "allreduce_rd"), 64<<10,
		16, 8, pacc.NoPower, pacc.CollectiveOptions{Verify: true}, "polling", 3, false, false, false)
	if err == nil {
		t.Fatal("corrupted verified run reported success")
	}
	if !pacc.IsIntegrity(err) {
		t.Fatalf("err = %v, want the failing rank's integrity error", err)
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want the peers' deadlock reported too", err)
	}
}
