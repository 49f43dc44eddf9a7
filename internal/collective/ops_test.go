package collective

import (
	"slices"
	"testing"

	"pacc/internal/mpi"
)

func TestParsePowerMode(t *testing.T) {
	cases := map[string]PowerMode{
		"no-power":     NoPower,
		"default":      NoPower,
		"freq-scaling": FreqScaling,
		"dvfs":         FreqScaling,
		"proposed":     Proposed,
		"power-aware":  Proposed,
		"":             NoPower,
	}
	for in, want := range cases {
		got, err := ParsePowerMode(in)
		if err != nil || got != want {
			t.Errorf("ParsePowerMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParsePowerMode("turbo"); err == nil {
		t.Error("bogus mode accepted")
	}
	for _, m := range []PowerMode{NoPower, FreqScaling, Proposed} {
		if got, err := ParsePowerMode(m.String()); err != nil || got != m {
			t.Errorf("ParsePowerMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
}

// TestCatalogueOpsRun: every catalogue entry completes without error
// under all three schemes on a 16-rank, 2-node world, verifying ones
// with Verify set too.
func TestCatalogueOpsRun(t *testing.T) {
	names := OpNames()
	if len(names) != 14 || !slices.IsSorted(names) {
		t.Fatalf("OpNames() = %v, want the 14 catalogue ops sorted", names)
	}
	if got, want := VerifyOpNames(), []string{"allreduce_ft", "allreduce_rd", "allreduce_topo"}; !slices.Equal(got, want) {
		t.Fatalf("VerifyOpNames() = %v, want %v", got, want)
	}
	for _, name := range names {
		call, ok := Op(name)
		if !ok {
			t.Fatalf("Op(%q) not found", name)
		}
		verify := []bool{false}
		if slices.Contains(VerifyOpNames(), name) {
			verify = append(verify, true)
		}
		for _, mode := range []PowerMode{NoPower, FreqScaling, Proposed} {
			for _, v := range verify {
				cfg := mpi.DefaultConfig()
				cfg.NProcs, cfg.PPN, cfg.Topo.Nodes = 16, 8, 2
				w, err := mpi.NewWorld(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var callErr error
				w.Launch(func(r *mpi.Rank) {
					if err := call(mpi.CommWorld(r), 64<<10, Options{Power: mode, Verify: v}); err != nil && callErr == nil {
						callErr = err
					}
				})
				d, err := w.Run()
				if err != nil || callErr != nil || d <= 0 {
					t.Errorf("%s %v verify=%v: call %v, run %v after %v", name, mode, v, callErr, err, d)
				}
			}
		}
	}
	if _, ok := Op("barrier"); ok {
		t.Error(`Op("barrier") found: the catalogue holds only fixed-size collectives`)
	}
}
