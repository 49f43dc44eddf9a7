package collective

import (
	"testing"

	"pacc/internal/fault"
	"pacc/internal/mpi"
	"pacc/internal/simtime"
)

// One rank inside an injected fail-slow window: the resilient allreduce
// must complete with the correct sum on the full group, and the
// communicator it returns must have the suspect demoted to the tail
// (minimum-forwarding) position while every healthy rank keeps its
// relative order. The sum also checks bounded slowdown in miniature: the
// collective finishes, it is not retried into oblivion.
func TestAllreduceSumFTDemotesSlowRank(t *testing.T) {
	const slow = 2
	cfg := ftCfg()
	cfg.Fault = &fault.Spec{Slows: []fault.Slow{
		{Rank: slow, Factor: 8, Start: 0, Duration: simtime.Second},
	}}
	sums := make([]float64, cfg.NProcs)
	newRanks := make([]int, cfg.NProcs)
	sizes := make([]int, cfg.NProcs)
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(func(r *mpi.Rank) {
		sum, fc, err := AllreduceSumFT(mpi.CommWorld(r), 64<<10, float64(r.ID()+1), Options{})
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		sums[r.ID()] = sum
		newRanks[r.ID()] = fc.Rank()
		sizes[r.ID()] = fc.Size()
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got := w.SuspectedRanks(); len(got) != 1 || got[0] != slow {
		t.Fatalf("SuspectedRanks = %v, want [%d]", got, slow)
	}
	want := 0.0
	for g := 0; g < cfg.NProcs; g++ {
		want += float64(g + 1)
	}
	for g := 0; g < cfg.NProcs; g++ {
		if sums[g] != want {
			t.Fatalf("rank %d sum %v, want %v", g, sums[g], want)
		}
		if sizes[g] != cfg.NProcs {
			t.Fatalf("rank %d finished on %d ranks, want %d (slow is not dead)", g, sizes[g], cfg.NProcs)
		}
		wantRank := g
		switch {
		case g == slow:
			wantRank = cfg.NProcs - 1 // demoted to the tail
		case g > slow:
			wantRank = g - 1 // healthy ranks slide up, order preserved
		}
		if newRanks[g] != wantRank {
			t.Fatalf("world rank %d got comm rank %d after demotion, want %d", g, newRanks[g], wantRank)
		}
	}
}

// With detection armed but nobody degraded, the census finds no suspects
// and the resilient runner hands back the original communicator object —
// no demotion, no reorder.
func TestRunResilientNoDemotionWhenHealthy(t *testing.T) {
	cfg := ftCfg()
	cfg.FailSlowDetect = true
	run(t, cfg, func(r *mpi.Rank) {
		c := mpi.CommWorld(r)
		fc, err := RunResilient(c, func(cc *mpi.Comm) error {
			_, e := allreduceSumChainRed(cc, 64<<10, redVal{v: 1})
			return e
		})
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		if fc != c {
			t.Errorf("rank %d: healthy armed round changed the communicator", r.ID())
		}
	})
}

// A suspect whose only sickness is a stuck power transition heals inside
// demoteSuspects (RecoverPower) and leaves the round back in sync, even
// though it is still demoted while its lag EWMA decays.
func TestDemoteSuspectsHealsStuckTransition(t *testing.T) {
	cfg := ftCfg()
	cfg.Fault = &fault.Spec{StickFailProb: 0.5}
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(func(r *mpi.Rank) {
		if r.ID() == 1 {
			// Provoke the gray failure: throttle-down lands, un-throttle
			// is lost, the rank runs at T4 believing itself at T0.
			provoked := false
			for i := 0; i < 64 && !provoked; i++ {
				r.SetThrottle(4)
				if !r.PowerSynced() {
					continue
				}
				r.SetThrottle(0)
				provoked = !r.PowerSynced()
			}
			if !provoked {
				t.Error("could not provoke a stuck un-throttle at p=0.5")
				return
			}
		}
		_, fc, err := AllreduceSumFT(mpi.CommWorld(r), 64<<10, 1, Options{})
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
			return
		}
		if r.ID() == 1 && fc.Rank() != fc.Size()-1 {
			t.Errorf("stuck rank kept comm rank %d, want tail %d", fc.Rank(), fc.Size()-1)
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// RecoverPower inside the demotion step re-issued the transition with
	// fresh coin flips; at p=0.5 the bounded retry heals deterministically
	// for this seed.
	if !w.Rank(1).PowerSynced() {
		t.Fatal("suspect left the resilient round with its power state still desynced")
	}
}
