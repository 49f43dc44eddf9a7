package collective

import (
	"errors"
	"testing"

	"pacc/internal/fault"
	"pacc/internal/mpi"
	"pacc/internal/simtime"
)

// TestCheckedHealthyMatchesUnchecked: with no faults, the checked variant
// returns the identical sum and verification never trips, while the
// checksum folds cost a small, bounded amount of extra simulated time.
func TestCheckedHealthyMatchesUnchecked(t *testing.T) {
	cfg := ftCfg()
	const bytes = 1 << 20
	var plainSum float64
	dPlain, _ := run(t, cfg, func(r *mpi.Rank) {
		s, err := AllreduceSum(mpi.CommWorld(r), bytes, float64(r.ID()+1), Options{})
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		if r.ID() == 0 {
			plainSum = s
		}
	})
	var checkedSum float64
	dChecked, _ := run(t, cfg, func(r *mpi.Rank) {
		s, err := AllreduceSum(mpi.CommWorld(r), bytes, float64(r.ID()+1), Options{Verify: true})
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		if r.ID() == 0 {
			checkedSum = s
		}
	})
	if want := wantSum(cfg.NProcs); plainSum != want || checkedSum != want {
		t.Fatalf("sums: plain %v checked %v, want %v", plainSum, checkedSum, want)
	}
	if dChecked <= dPlain {
		t.Fatalf("checked run (%v) should cost more than plain (%v)", dChecked, dPlain)
	}
	if over := dChecked.Seconds()/dPlain.Seconds() - 1; over > 0.03 {
		t.Fatalf("checksum overhead %.2f%% exceeds the 3%% budget (plain %v, checked %v)",
			over*100, dPlain, dChecked)
	}
}

// TestCheckedNeverSilentlyWrong is the end-to-end integrity invariant on
// the non-resilient checked variant: under a full-run memory-corruption
// burst, every rank either returns the correct sum or a typed integrity
// error — a corrupted value always travels with its diverged checksum
// lane, so it cannot land anywhere undetected.
func TestCheckedNeverSilentlyWrong(t *testing.T) {
	cfg := ftCfg()
	cfg.Fault = &fault.Spec{Seed: 7, MemBursts: []fault.MemBurst{
		{Rank: 2, Prob: 1, Start: 0, Duration: simtime.Second},
	}}
	want := wantSum(cfg.NProcs)
	sums := make([]float64, cfg.NProcs)
	errs := make([]error, cfg.NProcs)
	run(t, cfg, func(r *mpi.Rank) {
		sums[r.ID()], errs[r.ID()] = AllreduceSum(mpi.CommWorld(r), 64<<10, float64(r.ID()+1), Options{Verify: true})
	})
	caught := 0
	for g := 0; g < cfg.NProcs; g++ {
		switch {
		case errs[g] != nil:
			if !IsIntegrity(errs[g]) {
				t.Fatalf("rank %d: error is not an integrity error: %v", g, errs[g])
			}
			var ve *VerificationError
			if !errors.As(errs[g], &ve) {
				t.Fatalf("rank %d: want VerificationError, got %v", g, errs[g])
			}
			caught++
		case sums[g] != want:
			t.Fatalf("rank %d: silently wrong sum %v (want %v) with nil error", g, sums[g], want)
		}
	}
	if caught == 0 {
		t.Fatal("prob-1 burst corrupted nothing — injector not reaching the checked path")
	}
}

// TestFTCheckedRetriesPastBurst: the resilient checked allreduce treats a
// verification failure like a failed round. A burst window covering only
// the first attempts forces retries; once simulated time leaves the
// window, a clean round completes and every rank agrees on the correct
// sum with no error and no shrink (corruption kills no one).
func TestFTCheckedRetriesPastBurst(t *testing.T) {
	cfg := ftCfg()
	cfg.Fault = &fault.Spec{Seed: 3, MemBursts: []fault.MemBurst{
		{Rank: 5, Prob: 1, Start: 0, Duration: 40 * simtime.Microsecond},
	}}
	want := wantSum(cfg.NProcs)
	sums := make([]float64, cfg.NProcs)
	sizes := make([]int, cfg.NProcs)
	run(t, cfg, func(r *mpi.Rank) {
		sum, fc, err := AllreduceSumFT(mpi.CommWorld(r), 64<<10, float64(r.ID()+1), Options{Verify: true})
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		sums[r.ID()] = sum
		sizes[r.ID()] = fc.Size()
	})
	for g := 0; g < cfg.NProcs; g++ {
		if sums[g] != want {
			t.Fatalf("rank %d sum %v, want %v", g, sums[g], want)
		}
		if sizes[g] != cfg.NProcs {
			t.Fatalf("rank %d finished on %d ranks, want %d (integrity retries must not shrink)", g, sizes[g], cfg.NProcs)
		}
	}
}

// TestFTCheckedBudgetExhaustion: a burst that outlasts the whole retry
// budget surfaces as a typed, classifiable error on every rank — the
// exhaustion wrap keeps the last VerificationError reachable — and no
// rank returns a wrong sum with a nil error.
func TestFTCheckedBudgetExhaustion(t *testing.T) {
	cfg := ftCfg()
	cfg.Fault = &fault.Spec{Seed: 11, MemBursts: []fault.MemBurst{
		{Rank: -1, Prob: 1, Start: 0, Duration: simtime.Second},
	}}
	want := wantSum(cfg.NProcs)
	sums := make([]float64, cfg.NProcs)
	errs := make([]error, cfg.NProcs)
	run(t, cfg, func(r *mpi.Rank) {
		sums[r.ID()], _, errs[r.ID()] = AllreduceSumFT(mpi.CommWorld(r), 64<<10, float64(r.ID()+1), Options{Verify: true})
	})
	sawIntegrity := false
	for g := 0; g < cfg.NProcs; g++ {
		if errs[g] == nil {
			if sums[g] != want {
				t.Fatalf("rank %d: silently wrong sum %v with nil error", g, sums[g])
			}
			continue
		}
		// A rank aborted mid-chain by a peer's revoke exhausts with a
		// failure error; the rank that caught the mismatch carries the
		// integrity type. Both are typed — silence is the only failure.
		if !IsIntegrity(errs[g]) && !mpi.IsFailure(errs[g]) {
			t.Fatalf("rank %d: exhaustion error not classifiable: %v", g, errs[g])
		}
		sawIntegrity = sawIntegrity || IsIntegrity(errs[g])
	}
	// With every rank corrupted at probability 1, the budget must run
	// out, and at least one rank must name the verification failure.
	if !sawIntegrity {
		t.Fatal("full-run all-rank burst produced no integrity-classified exhaustion")
	}
}

// TestPlanVerifyFT: the plan-backed resilient allreduce with Options.Verify
// appends OpVerify steps; under a transient burst it recovers like the
// scalar checked variant (the taint bit fails the plan, RunResilient
// retries), and under a full-run burst the exhaustion error wraps
// plan.IntegrityError.
func TestPlanVerifyFT(t *testing.T) {
	cfg := ftCfg()
	cfg.Fault = &fault.Spec{Seed: 5, MemBursts: []fault.MemBurst{
		{Rank: 1, Prob: 1, Start: 0, Duration: 40 * simtime.Microsecond},
	}}
	run(t, cfg, func(r *mpi.Rank) {
		fc, err := AllreduceFT(mpi.CommWorld(r), 64<<10, Options{Verify: true, Plan: "allreduce_chain"})
		if err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
		if fc.Size() != cfg.NProcs {
			t.Errorf("rank %d finished on %d ranks, want %d", r.ID(), fc.Size(), cfg.NProcs)
		}
	})

	cfg.Fault = &fault.Spec{Seed: 5, MemBursts: []fault.MemBurst{
		{Rank: 1, Prob: 1, Start: 0, Duration: simtime.Second},
	}}
	var integ, silent int
	run(t, cfg, func(r *mpi.Rank) {
		_, err := AllreduceFT(mpi.CommWorld(r), 64<<10, Options{Verify: true, Plan: "allreduce_chain"})
		switch {
		case err == nil:
			silent++
		case IsIntegrity(err):
			integ++
		case !mpi.IsFailure(err):
			t.Errorf("rank %d: error not classifiable as integrity or failure: %v", r.ID(), err)
		}
	})
	if silent > 0 {
		t.Errorf("%d ranks finished cleanly under a full-run burst on a verified plan", silent)
	}
	if integ == 0 {
		t.Error("no rank's exhaustion wrapped a plan integrity error")
	}
}

// TestVerifyOffBitIdentical: a corrupt-free spec must leave the checked
// machinery completely dormant — an unchecked allreduce under a
// drop-free, burst-free spec costs exactly what it costs with no spec.
func TestVerifyOffBitIdentical(t *testing.T) {
	cfg := ftCfg()
	d0, e0 := run(t, cfg, func(r *mpi.Rank) {
		if _, err := AllreduceSum(mpi.CommWorld(r), 64<<10, 1, Options{}); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	})
	cfg.Fault = &fault.Spec{Seed: 9} // active=false spec
	d1, e1 := run(t, cfg, func(r *mpi.Rank) {
		if _, err := AllreduceSum(mpi.CommWorld(r), 64<<10, 1, Options{}); err != nil {
			t.Errorf("rank %d: %v", r.ID(), err)
		}
	})
	if d0 != d1 || e0 != e1 {
		t.Fatalf("inactive spec changed the simulation: %v/%v J vs %v/%v J", d0, e0, d1, e1)
	}
}
