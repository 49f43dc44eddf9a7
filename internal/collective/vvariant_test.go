package collective

import (
	"fmt"
	"strings"
	"testing"

	"pacc/internal/mpi"
	"pacc/internal/simtime"
)

// runV launches body on a world of the given shape and returns the
// elapsed time and the first error any rank's collective call reported.
func runV(t *testing.T, procs, ppn int, body func(c *mpi.Comm) error) (simtime.Duration, error) {
	t.Helper()
	cfg := mpi.DefaultConfig()
	cfg.NProcs, cfg.PPN = procs, ppn
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var callErr error
	w.Launch(func(r *mpi.Rank) {
		if err := body(mpi.CommWorld(r)); err != nil && callErr == nil {
			callErr = err
		}
	})
	d, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return d, callErr
}

// TestAlltoallvNonUniform: a skewed per-pair matrix (volume grows with
// src and dst) must complete on power-of-two and non-power-of-two
// communicators under every power scheme.
func TestAlltoallvNonUniform(t *testing.T) {
	skew := func(src, dst int) int64 { return int64(1+src) * int64(1+dst) * 1024 }
	for _, shape := range []struct{ procs, ppn int }{{8, 4}, {12, 4}, {16, 8}} {
		for _, mode := range []PowerMode{NoPower, FreqScaling, Proposed} {
			d, err := runV(t, shape.procs, shape.ppn, func(c *mpi.Comm) error {
				return Alltoallv(c, skew, Options{Power: mode})
			})
			if err != nil {
				t.Fatalf("%dx%d mode %v: %v", shape.procs, shape.ppn, mode, err)
			}
			if d <= 0 {
				t.Fatalf("%dx%d mode %v: empty run", shape.procs, shape.ppn, mode)
			}
		}
	}
}

// TestAlltoallvZeroRowAndColumn: rank 0 sends nothing (zero row) and the
// last rank receives nothing (zero column). Both are legal and must not
// deadlock the pairwise schedule — the exchange still happens with
// zero-byte messages on one side.
func TestAlltoallvZeroRowAndColumn(t *testing.T) {
	const procs, ppn = 8, 4
	sizeOf := func(src, dst int) int64 {
		if src == 0 || dst == procs-1 {
			return 0
		}
		return 4096
	}
	for _, mode := range []PowerMode{NoPower, Proposed} {
		d, err := runV(t, procs, ppn, func(c *mpi.Comm) error {
			return Alltoallv(c, sizeOf, Options{Power: mode})
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if d <= 0 {
			t.Fatalf("mode %v: empty run", mode)
		}
	}
}

// TestAlltoallvDeterministic: the same matrix reproduces the run
// bit-identically — the v-variant schedule must not depend on map
// iteration or any other nondeterminism.
func TestAlltoallvDeterministic(t *testing.T) {
	sizeOf := func(src, dst int) int64 { return int64((src*7+dst*3)%5) * 2048 }
	elapsed := func() simtime.Duration {
		d, err := runV(t, 12, 4, func(c *mpi.Comm) error {
			return Alltoallv(c, sizeOf, Options{})
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if d1, d2 := elapsed(), elapsed(); d1 != d2 {
		t.Fatalf("identical runs differ: %v vs %v", d1, d2)
	}
}

// TestVvariantsRejectBadArguments: negative entries and nil size
// functions are rejected with a returned error before any rank touches
// the network.
func TestVvariantsRejectBadArguments(t *testing.T) {
	cases := map[string]func(c *mpi.Comm) error{
		"alltoallv-negative": func(c *mpi.Comm) error {
			return Alltoallv(c, func(src, dst int) int64 {
				if src == 1 && dst == 2 {
					return -1
				}
				return 64
			}, Options{})
		},
		"alltoallv-nil": func(c *mpi.Comm) error {
			return Alltoallv(c, nil, Options{})
		},
	}
	for name, call := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := runV(t, 4, 4, call)
			if err == nil {
				t.Fatal("malformed arguments accepted")
			}
			if !strings.Contains(err.Error(), "collective:") {
				t.Errorf("error missing collective prefix: %v", err)
			}
		})
	}
}

// TestFixedSizeEntryPointsRejectNonPositive: every fixed-size entry point
// returns an error for zero and negative byte counts.
func TestFixedSizeEntryPointsRejectNonPositive(t *testing.T) {
	entries := map[string]func(c *mpi.Comm, bytes int64) error{
		"alltoall":          func(c *mpi.Comm, b int64) error { return Alltoall(c, b, Options{}) },
		"alltoall_pairwise": func(c *mpi.Comm, b int64) error { return AlltoallPairwise(c, b, Options{}) },
		"alltoall_bruck":    func(c *mpi.Comm, b int64) error { return AlltoallBruck(c, b, Options{}) },
		"bcast":             func(c *mpi.Comm, b int64) error { return Bcast(c, 0, b, Options{}) },
		"bcast_binomial":    func(c *mpi.Comm, b int64) error { return BcastBinomial(c, 0, b, Options{}) },
		"reduce":            func(c *mpi.Comm, b int64) error { return Reduce(c, 0, b, Options{}) },
		"allgather":         func(c *mpi.Comm, b int64) error { return Allgather(c, b, Options{}) },
		"allgather_ring":    func(c *mpi.Comm, b int64) error { return AllgatherRing(c, b, Options{}) },
		"allgather_rd":      func(c *mpi.Comm, b int64) error { return AllgatherRD(c, b, Options{}) },
		"allreduce":         func(c *mpi.Comm, b int64) error { return Allreduce(c, b, Options{}) },
		"allreduce_rd":      func(c *mpi.Comm, b int64) error { return AllreduceRD(c, b, Options{}) },
		"gather":            func(c *mpi.Comm, b int64) error { return Gather(c, 0, b, Options{}) },
		"scatter":           func(c *mpi.Comm, b int64) error { return Scatter(c, 0, b, Options{}) },
		"scatter_topo":      func(c *mpi.Comm, b int64) error { return ScatterTopoAware(c, 0, b, Options{}) },
		"bcast_topo":        func(c *mpi.Comm, b int64) error { return BcastTopoAware(c, 0, b, Options{}) },
		"gather_topo":       func(c *mpi.Comm, b int64) error { return GatherTopoAware(c, 0, b, Options{}) },
		"AllreduceSum": func(c *mpi.Comm, b int64) error {
			_, err := AllreduceSum(c, b, 1, Options{})
			return err
		},
		"AllreduceSumFT": func(c *mpi.Comm, b int64) error {
			_, _, err := AllreduceSumFT(c, b, 1, Options{})
			return err
		},
		"AllreduceFT": func(c *mpi.Comm, b int64) error {
			_, err := AllreduceFT(c, b, Options{})
			return err
		},
	}
	for name, call := range entries {
		t.Run(name, func(t *testing.T) {
			for _, bad := range []int64{0, -1, -4096} {
				_, err := runV(t, 4, 4, func(c *mpi.Comm) error { return call(c, bad) })
				if err == nil {
					t.Errorf("bytes=%d accepted", bad)
				}
			}
		})
	}
}

// TestRootedEntryPointsRejectOutOfRangeRoot: every rooted entry point
// returns an error for a root outside the communicator (-1 and Size()),
// before any rank spends simulated time on the call.
func TestRootedEntryPointsRejectOutOfRangeRoot(t *testing.T) {
	const procs = 4
	entries := map[string]func(c *mpi.Comm, root int) error{
		"bcast":          func(c *mpi.Comm, root int) error { return Bcast(c, root, 4096, Options{}) },
		"bcast_binomial": func(c *mpi.Comm, root int) error { return BcastBinomial(c, root, 4096, Options{}) },
		"reduce":         func(c *mpi.Comm, root int) error { return Reduce(c, root, 4096, Options{}) },
		"gather":         func(c *mpi.Comm, root int) error { return Gather(c, root, 4096, Options{}) },
		"scatter":        func(c *mpi.Comm, root int) error { return Scatter(c, root, 4096, Options{}) },
		"scatter_topo":   func(c *mpi.Comm, root int) error { return ScatterTopoAware(c, root, 4096, Options{}) },
		"bcast_topo":     func(c *mpi.Comm, root int) error { return BcastTopoAware(c, root, 4096, Options{}) },
		"gather_topo":    func(c *mpi.Comm, root int) error { return GatherTopoAware(c, root, 4096, Options{}) },
	}
	for name, call := range entries {
		t.Run(name, func(t *testing.T) {
			for _, bad := range []int{-1, procs} {
				d, err := runV(t, procs, procs, func(c *mpi.Comm) error { return call(c, bad) })
				if err == nil {
					t.Errorf("root=%d accepted", bad)
					continue
				}
				if want := fmt.Sprintf("root %d outside [0,%d)", bad, procs); !strings.Contains(err.Error(), want) {
					t.Errorf("root=%d: error %q does not name the bad root (%q)", bad, err, want)
				}
				if d != 0 {
					t.Errorf("root=%d: rejected call ran for %v of simulated time", bad, d)
				}
			}
		})
	}
}
