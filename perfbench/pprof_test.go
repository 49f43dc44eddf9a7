package main

import (
	"math"
	"strings"
	"testing"
)

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"runtime.mallocgc":                               "runtime",
		"runtime.(*guintptr).cas (inline)":               "runtime",
		"internal/runtime/atomic.(*Uint32).Add (inline)": "runtime",
		"gosave_systemstack_switch":                      "runtime",
		"runtime.gcBgMarkWorker":                         "gc",
		"runtime.scanobject":                             "gc",
		"runtime.(*gcWork).tryGet":                       "gc",
		"runtime.(*mspan).sweep":                         "gc",
		"runtime.bgsweep":                                "gc",
		"runtime.wbBufFlush":                             "gc",
		"syscall.Syscall6":                               "syscall",
		"internal/runtime/syscall.Syscall6":              "syscall",
		"internal/syscall/unix.Fcntl":                    "syscall",
		"pacc/internal/network.(*Fabric).armNext":        "network",
		"pacc/internal/simtime.(*Engine).Run":            "simtime",
		"pacc/internal/mpi.(*Request).waitRecv":          "mpi",
		"pacc/internal/plan.Execute":                     "plan",
		"pacc/internal/collective.Barrier":               "collective",
		"pacc/internal/power.(*Core).SetBusy":            "power",
		"pacc/internal/obs.(*Bus).Span":                  "obs",
		"pacc/internal/analyze.(*Collector).add":         "analyze",
		"pacc/internal/sweep.(*Service).Submit.func1":    "sweep",
		"pacc/internal/workload.Run":                     "other",
		"pacc/internal/fault/chaos.Run":                  "other",
		"pacc.(*ObsSession).WriteTrace":                  "other",
		"main.(*run).measure":                            "other",
		"encoding/json.(*encodeState).marshal":           "other",
		"runtime/pprof.(*profMap).lookup":                "other",
		"crypto/sha256.block":                            "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

const sampleTop = `File: perfbench
Type: cpu
Duration: 1.81s, Total samples = 1000ms (55.25%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      450ms 45.00%  runtime.casgstatus
     200ms 20.00% 60.00%      200ms 20.00%  pacc/internal/network.(*Fabric).armNext
     150ms 15.00% 75.00%      350ms 35.00%  pacc/internal/simtime.(*Engine).Run
     100ms 10.00% 85.00%      100ms 10.00%  runtime.scanobject
      50ms  5.00% 90.00%       50ms  5.00%  syscall.Syscall6
      50ms  5.00% 95.00%       60ms  6.00%  runtime.nextFreeFast (inline)
      50ms  5.00%   100%       50ms  5.00%  encoding/json.Marshal
         0     0%   100%      900ms 90.00%  main.main
`

func TestBucketTop(t *testing.T) {
	shares, err := bucketTop(strings.NewReader(sampleTop))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"runtime": 0.45, "network": 0.2, "simtime": 0.15, "gc": 0.1,
		"syscall": 0.05, "other": 0.05,
	}
	var sum float64
	for _, b := range cpuBuckets {
		if math.Abs(shares[b]-want[b]) > 1e-9 {
			t.Errorf("cpu.%s = %g, want %g", b, shares[b], want[b])
		}
		sum += shares[b]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %g, want 1", sum)
	}
	if len(shares) != len(cpuBuckets) {
		t.Errorf("%d shares, want one per bucket (%d)", len(shares), len(cpuBuckets))
	}
}

func TestBucketTopRejectsEmptyAndMalformed(t *testing.T) {
	if _, err := bucketTop(strings.NewReader("      flat  flat%   sum%        cum   cum%\n")); err == nil {
		t.Error("no rows: want an error")
	}
	if _, err := bucketTop(strings.NewReader("      flat  flat%   sum%        cum   cum%\n  12ms oops\n")); err == nil {
		t.Error("short row: want an error")
	}
}
