package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pacc"
)

func TestParseSize(t *testing.T) {
	cases := map[string]int64{
		"1024": 1024,
		"4K":   4096,
		"4k":   4096,
		"1M":   1 << 20,
		" 64K": 64 << 10,
		"0":    0,
	}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "abc", "-4K", "4G"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) accepted", bad)
		}
	}
}

func TestParseMode(t *testing.T) {
	cases := map[string]pacc.PowerMode{
		"no-power":     pacc.NoPower,
		"default":      pacc.NoPower,
		"freq-scaling": pacc.FreqScaling,
		"dvfs":         pacc.FreqScaling,
		"proposed":     pacc.Proposed,
		"power-aware":  pacc.Proposed,
	}
	for in, want := range cases {
		got, err := parseMode(in)
		if err != nil || got != want {
			t.Errorf("parseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseMode("turbo"); err == nil {
		t.Error("bogus mode accepted")
	}
}

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
}

// TestMeasureSmoke exercises the measurement loop end to end at a small
// size.
func TestMeasureSmoke(t *testing.T) {
	lat, watts, _, err := measure(context.Background(), pacc.DefaultConfig(), ops["bcast"], 4096,
		16, 8, pacc.NoPower, pacc.CollectiveOptions{}, "polling", 2, false, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 || watts <= 0 {
		t.Fatalf("degenerate measurement: %v us, %v W", lat, watts)
	}
	if _, _, _, err := measure(context.Background(), pacc.DefaultConfig(), ops["bcast"], 4096,
		15, 8, pacc.NoPower, pacc.CollectiveOptions{}, "polling", 1, false, false, false); err == nil {
		t.Error("procs not multiple of ppn accepted")
	}
	if _, _, _, err := measure(context.Background(), pacc.DefaultConfig(), ops["bcast"], 4096,
		16, 8, pacc.NoPower, pacc.CollectiveOptions{}, "warp", 1, false, false, false); err == nil {
		t.Error("bogus progression accepted")
	}
}

// TestMeasureHonorsTimeout: an already-expired context aborts the run
// with the typed cancellation error instead of burning CPU.
func TestMeasureHonorsTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := measure(ctx, pacc.DefaultConfig(), ops["bcast"], 4096,
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
	_, _, _, err = measure(context.Background(), cfg, ops["allreduce_rd"], 64<<10,
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
