package collective

import (
	"testing"

	"pacc/internal/mpi"
	"pacc/internal/simtime"
	"pacc/internal/topology"
)

// run launches body on a fresh world and returns elapsed time and total
// cluster energy.
func run(t *testing.T, cfg mpi.Config, body func(r *mpi.Rank)) (simtime.Duration, float64) {
	t.Helper()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(body)
	d, err := w.Run()
	if err != nil {
		t.Fatal(err)
	}
	return d, w.Station().EnergyJoules()
}

// cfg64 is the paper's testbed: 64 ranks, 8 per node, 8 nodes.
func cfg64() mpi.Config { return mpi.DefaultConfig() }

// cfg32x8 is the 8-way 32-process layout (4 nodes x 8 ranks).
func cfg32x8() mpi.Config {
	c := mpi.DefaultConfig()
	c.NProcs = 32
	c.PPN = 8
	return c
}

// cfg32x4 is the 4-way 32-process layout (8 nodes x 4 ranks).
func cfg32x4() mpi.Config {
	c := mpi.DefaultConfig()
	c.NProcs = 32
	c.PPN = 4
	return c
}

func TestBarrierSynchronizes(t *testing.T) {
	cfg := cfg32x8()
	exit := make([]simtime.Time, cfg.NProcs)
	var maxStart simtime.Time
	run(t, cfg, func(r *mpi.Rank) {
		// Stagger arrivals.
		r.Compute(simtime.Duration(r.ID()) * simtime.Millisecond)
		if r.Now() > maxStart {
			maxStart = r.Now()
		}
		Barrier(mpi.CommWorld(r))
		exit[r.ID()] = r.Now()
	})
	for i, e := range exit {
		if e < maxStart {
			t.Fatalf("rank %d left the barrier at %v before the last arrival %v", i, e, maxStart)
		}
	}
}

func TestBarrierSingleRank(t *testing.T) {
	cfg := cfg64()
	cfg.NProcs = 8
	cfg.PPN = 8
	run(t, cfg, func(r *mpi.Rank) {
		c := mpi.CommWorld(r)
		sub := c.Sub([]int{int(r.ID() % 8)})
		if sub != nil {
			Barrier(sub)
		}
	})
}

func TestAlltoallCompletes(t *testing.T) {
	for _, bytes := range []int64{256, 64 << 10} {
		done := 0
		run(t, cfg32x8(), func(r *mpi.Rank) {
			Alltoall(mpi.CommWorld(r), bytes, Options{})
			done++
		})
		if done != 32 {
			t.Fatalf("bytes=%d: %d ranks finished, want 32", bytes, done)
		}
	}
}

// TestAlltoallContention reproduces Figure 2(a)'s mechanism: the same 32
// ranks take substantially longer in the 8-way layout than the 4-way one
// for large messages.
func TestAlltoallContention(t *testing.T) {
	const bytes = 256 << 10
	elapsed := func(cfg mpi.Config) simtime.Duration {
		d, _ := run(t, cfg, func(r *mpi.Rank) {
			AlltoallPairwise(mpi.CommWorld(r), bytes, Options{})
		})
		return d
	}
	d4, d8 := elapsed(cfg32x4()), elapsed(cfg32x8())
	ratio := d8.Seconds() / d4.Seconds()
	if ratio < 1.2 {
		t.Fatalf("8-way/4-way = %.2f, want contention to make 8-way at least 1.2x slower (paper saw ~1.5x)", ratio)
	}
	if ratio > 3.0 {
		t.Fatalf("8-way/4-way = %.2f, implausibly large", ratio)
	}
}

// TestBruckVsPairwiseCrossover: Bruck wins for tiny messages, pairwise for
// large ones.
func TestBruckVsPairwiseCrossover(t *testing.T) {
	elapsed := func(bytes int64, f func(c *mpi.Comm, bytes int64, opt Options) error) simtime.Duration {
		d, _ := run(t, cfg32x8(), func(r *mpi.Rank) {
			f(mpi.CommWorld(r), bytes, Options{})
		})
		return d
	}
	small := int64(64)
	if b, p := elapsed(small, AlltoallBruck), elapsed(small, AlltoallPairwise); b >= p {
		t.Errorf("64B: Bruck (%v) should beat pairwise (%v)", b, p)
	}
	large := int64(512 << 10)
	if b, p := elapsed(large, AlltoallBruck), elapsed(large, AlltoallPairwise); p >= b {
		t.Errorf("512KB: pairwise (%v) should beat Bruck (%v)", p, b)
	}
}

// TestAlltoallPowerModes checks the paper's headline trade-off (Fig 7):
// energy NoPower > FreqScaling > Proposed, with bounded time overhead.
func TestAlltoallPowerModes(t *testing.T) {
	const bytes = 256 << 10
	measure := func(mode PowerMode) (simtime.Duration, float64) {
		return run(t, cfg64(), func(r *mpi.Rank) {
			c := mpi.CommWorld(r)
			for i := 0; i < 2; i++ {
				AlltoallPairwise(c, bytes, Options{Power: mode})
			}
		})
	}
	dNo, eNo := measure(NoPower)
	dFS, eFS := measure(FreqScaling)
	dPr, ePr := measure(Proposed)
	if !(eNo > eFS && eFS > ePr) {
		t.Fatalf("energy ordering violated: no-power %.1f J, freq-scaling %.1f J, proposed %.1f J", eNo, eFS, ePr)
	}
	for name, pair := range map[string][2]simtime.Duration{
		"freq-scaling": {dFS, dNo},
		"proposed":     {dPr, dNo},
	} {
		overhead := pair[0].Seconds()/pair[1].Seconds() - 1
		if overhead < 0 {
			t.Errorf("%s faster than no-power (%.2f%%), unexpected", name, overhead*100)
		}
		if overhead > 0.30 {
			t.Errorf("%s overhead %.1f%%, want <= 30%% (paper: ~10%%)", name, overhead*100)
		}
	}
	savings := 1 - ePr/eNo
	if savings < 0.10 {
		t.Errorf("proposed saves only %.1f%% energy on alltoall, want >= 10%%", savings*100)
	}
}

// TestAlltoallPowerAwareFallback: a 4-way bunch layout leaves socket B
// empty; Proposed must degrade gracefully to the pairwise schedule.
func TestAlltoallPowerAwareFallback(t *testing.T) {
	done := 0
	run(t, cfg32x4(), func(r *mpi.Rank) {
		Alltoall(mpi.CommWorld(r), 128<<10, Options{Power: Proposed})
		done++
	})
	if done != 32 {
		t.Fatalf("%d ranks finished, want 32", done)
	}
}

func TestAlltoallvCompletes(t *testing.T) {
	sizes := func(src, dst int) int64 { return int64(1024 * (1 + (src+dst)%4)) }
	for _, mode := range []PowerMode{NoPower, FreqScaling, Proposed} {
		done := 0
		run(t, cfg32x8(), func(r *mpi.Rank) {
			Alltoallv(mpi.CommWorld(r), sizes, Options{Power: mode})
			done++
		})
		if done != 32 {
			t.Fatalf("mode %v: %d ranks finished", mode, done)
		}
	}
}

// TestAlltoallTraceSeparatesPhases: the proposed algorithm reports its
// four phases, and phases 2+3+4 dominate phase 1 for inter-node-heavy
// layouts (the premise of §V-A).
func TestAlltoallTraceSeparatesPhases(t *testing.T) {
	const bytes = 128 << 10
	traces := make([]*Trace, 64)
	run(t, cfg64(), func(r *mpi.Rank) {
		tr := NewTrace()
		traces[r.ID()] = tr
		Alltoall(mpi.CommWorld(r), bytes, Options{Power: Proposed, Trace: tr})
	})
	tr := traces[0]
	if tr.Phase(PhaseTotal) <= 0 {
		t.Fatal("no total time recorded")
	}
	intra := tr.Phase(PhaseIntra)
	inter := tr.Phase(PhasePhase2) + tr.Phase(PhasePhase3) + tr.Phase(PhasePhase4)
	if intra <= 0 || inter <= 0 {
		t.Fatalf("phases missing: intra=%v inter=%v", intra, inter)
	}
	if inter < 3*intra {
		t.Errorf("inter-node time %v not >> intra %v; paper expects the last P-c steps to dominate", inter, intra)
	}
}

func TestBcastCompletes(t *testing.T) {
	for _, bytes := range []int64{512, 1 << 20} {
		for _, mode := range []PowerMode{NoPower, FreqScaling, Proposed} {
			done := 0
			run(t, cfg64(), func(r *mpi.Rank) {
				Bcast(mpi.CommWorld(r), 0, bytes, Options{Power: mode})
				done++
			})
			if done != 64 {
				t.Fatalf("bytes=%d mode=%v: %d finished", bytes, mode, done)
			}
		}
	}
}

func TestBcastNonLeaderRoot(t *testing.T) {
	done := 0
	run(t, cfg32x8(), func(r *mpi.Rank) {
		Bcast(mpi.CommWorld(r), 5, 64<<10, Options{}) // rank 5 is not a leader
		done++
	})
	if done != 32 {
		t.Fatalf("%d finished", done)
	}
}

// TestBcastNetworkPhaseDominates reproduces Figure 2(b): for large
// messages the inter-leader phase accounts for most of the broadcast.
func TestBcastNetworkPhaseDominates(t *testing.T) {
	traces := make([]*Trace, 64)
	run(t, cfg64(), func(r *mpi.Rank) {
		tr := NewTrace()
		traces[r.ID()] = tr
		Bcast(mpi.CommWorld(r), 0, 1<<20, Options{Trace: tr})
	})
	tr := traces[0] // leader of node 0: sees the real network phase
	total := tr.Phase(PhaseTotal)
	net := tr.Phase(PhaseNetwork)
	if net.Seconds() < 0.5*total.Seconds() {
		t.Fatalf("network phase %v is %.0f%% of total %v; paper expects it to dominate",
			net, 100*net.Seconds()/total.Seconds(), total)
	}
}

// TestBcastPowerModes checks Figure 8's shape: modest time overhead and
// ordered mean power draw (≈2.3 / 1.8 / 1.6 KW in the paper). Iterations
// are barrier-separated like the OSU benchmark loop, so ranks whose part
// of the collective is short stay busy-waiting instead of racing ahead.
func TestBcastPowerModes(t *testing.T) {
	const bytes = 1 << 20
	measure := func(mode PowerMode) (simtime.Duration, float64) {
		d, e := run(t, cfg64(), func(r *mpi.Rank) {
			c := mpi.CommWorld(r)
			for i := 0; i < 4; i++ {
				Barrier(c)
				Bcast(c, 0, bytes, Options{Power: mode})
			}
		})
		return d, e / d.Seconds() // mean watts
	}
	dNo, pNo := measure(NoPower)
	_, pFS := measure(FreqScaling)
	dPr, pPr := measure(Proposed)
	if !(pNo > pFS && pFS > pPr) {
		t.Fatalf("mean power ordering violated: %.0f / %.0f / %.0f W", pNo, pFS, pPr)
	}
	overhead := dPr.Seconds()/dNo.Seconds() - 1
	if overhead > 0.35 {
		t.Errorf("proposed bcast overhead %.1f%%, want <= 35%% (paper: ~15%%)", overhead*100)
	}
}

// TestBcastCoreGranularAblation: core-level throttling must save at least
// as much energy as socket-level without being slower (§V-B prediction).
func TestBcastCoreGranularAblation(t *testing.T) {
	const bytes = 1 << 20
	measure := func(core bool) (simtime.Duration, float64) {
		return run(t, cfg64(), func(r *mpi.Rank) {
			c := mpi.CommWorld(r)
			for i := 0; i < 4; i++ {
				Bcast(c, 0, bytes, Options{Power: Proposed, CoreGranularThrottle: core})
			}
		})
	}
	dSock, eSock := measure(false)
	dCore, eCore := measure(true)
	if eCore > eSock*1.01 {
		t.Errorf("core-granular energy %.1f J above socket-level %.1f J", eCore, eSock)
	}
	if dCore.Seconds() > dSock.Seconds()*1.01 {
		t.Errorf("core-granular time %v above socket-level %v", dCore, dSock)
	}
}

func TestBcastBinomial(t *testing.T) {
	done := 0
	run(t, cfg32x8(), func(r *mpi.Rank) {
		BcastBinomial(mpi.CommWorld(r), 0, 32<<10, Options{})
		done++
	})
	if done != 32 {
		t.Fatalf("%d finished", done)
	}
}

func TestReduceCompletes(t *testing.T) {
	for _, mode := range []PowerMode{NoPower, FreqScaling, Proposed} {
		for _, root := range []int{0, 3} {
			done := 0
			run(t, cfg32x8(), func(r *mpi.Rank) {
				Reduce(mpi.CommWorld(r), root, 16<<10, Options{Power: mode})
				done++
			})
			if done != 32 {
				t.Fatalf("mode=%v root=%d: %d finished", mode, root, done)
			}
		}
	}
}

// TestReduceNetworkPhaseDominates reproduces Figure 2(c)'s premise for
// medium messages.
func TestReduceNetworkPhaseDominates(t *testing.T) {
	traces := make([]*Trace, 64)
	run(t, cfg64(), func(r *mpi.Rank) {
		tr := NewTrace()
		traces[r.ID()] = tr
		Reduce(mpi.CommWorld(r), 0, 4<<10, Options{Trace: tr})
	})
	tr := traces[0]
	net := tr.Phase(PhaseNetwork)
	total := tr.Phase(PhaseTotal)
	if net.Seconds() < 0.4*total.Seconds() {
		t.Fatalf("network %v vs total %v: expected the leader phase to dominate", net, total)
	}
}

func TestReducePowerOrdering(t *testing.T) {
	measure := func(mode PowerMode) float64 {
		d, e := run(t, cfg64(), func(r *mpi.Rank) {
			c := mpi.CommWorld(r)
			for i := 0; i < 4; i++ {
				Barrier(c)
				Reduce(c, 0, 64<<10, Options{Power: mode})
			}
		})
		return e / d.Seconds() // mean watts
	}
	pNo, pFS, pPr := measure(NoPower), measure(FreqScaling), measure(Proposed)
	if !(pNo > pFS && pFS > pPr) {
		t.Fatalf("mean power ordering violated: %.0f / %.0f / %.0f W", pNo, pFS, pPr)
	}
}

func TestAllgatherVariants(t *testing.T) {
	for name, f := range map[string]func(*mpi.Comm, int64, Options) error{
		"mc":   Allgather,
		"ring": AllgatherRing,
		"rd":   AllgatherRD,
	} {
		done := 0
		run(t, cfg32x8(), func(r *mpi.Rank) {
			f(mpi.CommWorld(r), 4<<10, Options{})
			done++
		})
		if done != 32 {
			t.Fatalf("%s: %d finished", name, done)
		}
	}
}

func TestAllgatherPowerModes(t *testing.T) {
	measure := func(mode PowerMode) float64 {
		_, e := run(t, cfg64(), func(r *mpi.Rank) {
			Allgather(mpi.CommWorld(r), 16<<10, Options{Power: mode})
		})
		return e
	}
	eNo, ePr := measure(NoPower), measure(Proposed)
	if ePr >= eNo {
		t.Fatalf("proposed allgather energy %.1f J not below no-power %.1f J", ePr, eNo)
	}
}

func TestAllreduceVariants(t *testing.T) {
	for _, mode := range []PowerMode{NoPower, FreqScaling, Proposed} {
		done := 0
		run(t, cfg32x8(), func(r *mpi.Rank) {
			Allreduce(mpi.CommWorld(r), 8<<10, Options{Power: mode})
			done++
		})
		if done != 32 {
			t.Fatalf("mode=%v: %d finished", mode, done)
		}
	}
	// Non-power-of-two falls back to reduce+bcast.
	cfg := mpi.DefaultConfig()
	cfg.NProcs = 48
	cfg.PPN = 8
	done := 0
	run(t, cfg, func(r *mpi.Rank) {
		Allreduce(mpi.CommWorld(r), 4<<10, Options{})
		done++
	})
	if done != 48 {
		t.Fatalf("48 ranks: %d finished", done)
	}
}

func TestGatherScatter(t *testing.T) {
	for _, root := range []int{0, 7} {
		done := 0
		run(t, cfg32x8(), func(r *mpi.Rank) {
			c := mpi.CommWorld(r)
			Scatter(c, root, 8<<10, Options{})
			Gather(c, root, 8<<10, Options{})
			done++
		})
		if done != 32 {
			t.Fatalf("root=%d: %d finished", root, done)
		}
	}
}

func TestCollectivesBackToBack(t *testing.T) {
	// Tag isolation: a sequence of different collectives on the same
	// communicator must not cross-match messages.
	done := 0
	run(t, cfg32x8(), func(r *mpi.Rank) {
		c := mpi.CommWorld(r)
		Alltoall(c, 2048, Options{})
		Bcast(c, 0, 2048, Options{})
		Reduce(c, 0, 2048, Options{})
		Barrier(c)
		Allgather(c, 1024, Options{})
		Allreduce(c, 1024, Options{})
		done++
	})
	if done != 32 {
		t.Fatalf("%d finished", done)
	}
}

func TestTournamentPeerProperties(t *testing.T) {
	for _, n := range []int{2, 4, 6, 7, 8, 10, 16} {
		seen := map[[2]int]bool{}
		for round := 1; round <= tournamentRounds(n); round++ {
			for i := 0; i < n; i++ {
				j := tournamentPeer(n, round, i)
				if j == i {
					t.Fatalf("n=%d round=%d: node %d paired with itself", n, round, i)
				}
				if j < 0 {
					if n%2 == 0 {
						t.Fatalf("n=%d round=%d: unexpected bye for %d", n, round, i)
					}
					continue
				}
				if back := tournamentPeer(n, round, j); back != i {
					t.Fatalf("n=%d round=%d: %d->%d but %d->%d (not mutual)", n, round, i, j, j, back)
				}
				a, b := i, j
				if a > b {
					a, b = b, a
				}
				seen[[2]int{a, b}] = true
			}
		}
		// Every unordered pair must meet exactly once across rounds.
		want := n * (n - 1) / 2
		if len(seen) != want {
			t.Fatalf("n=%d: covered %d pairs, want %d", n, len(seen), want)
		}
	}
}

func TestPowerModeString(t *testing.T) {
	if NoPower.String() != "no-power" || FreqScaling.String() != "freq-scaling" ||
		Proposed.String() != "proposed" {
		t.Error("PowerMode strings wrong")
	}
	if PowerMode(9).String() == "" {
		t.Error("unknown mode should format")
	}
}

func TestTraceNilSafe(t *testing.T) {
	var tr *Trace
	tr.Add("x", simtime.Second) // must not panic
	if tr.Phase("x") != 0 {
		t.Error("nil trace phase should be 0")
	}
	tr2 := &Trace{}
	tr2.Add("y", simtime.Second)
	if tr2.Phase("y") != simtime.Second {
		t.Error("zero-value trace should accumulate")
	}
}

// TestCollectiveDeterminism: identical runs produce identical times and
// energies.
func TestCollectiveDeterminism(t *testing.T) {
	measure := func() (simtime.Duration, float64) {
		return run(t, cfg32x8(), func(r *mpi.Rank) {
			c := mpi.CommWorld(r)
			Alltoall(c, 64<<10, Options{Power: Proposed})
			Bcast(c, 0, 256<<10, Options{Power: Proposed})
		})
	}
	d1, e1 := measure()
	d2, e2 := measure()
	if d1 != d2 || e1 != e2 {
		t.Fatalf("nondeterministic: (%v, %.6f) vs (%v, %.6f)", d1, e1, d2, e2)
	}
}

// TestRestoredPowerState: collectives must leave cores at fmax/T0.
func TestRestoredPowerState(t *testing.T) {
	cfg := cfg64()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(func(r *mpi.Rank) {
		c := mpi.CommWorld(r)
		Alltoall(c, 128<<10, Options{Power: Proposed})
		Bcast(c, 0, 128<<10, Options{Power: Proposed})
		Reduce(c, 0, 16<<10, Options{Power: Proposed})
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.NProcs; i++ {
		core := w.Rank(i).Core()
		if core.FreqGHz() != cfg.Power.FMaxGHz {
			t.Fatalf("rank %d left at %.2f GHz", i, core.FreqGHz())
		}
		if core.Throttle() != 0 {
			t.Fatalf("rank %d left at %v", i, core.Throttle())
		}
	}
}

func TestLayoutHelpers(t *testing.T) {
	cfg := cfg64()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(func(r *mpi.Rank) {
		if r.ID() != 0 {
			return
		}
		c := mpi.CommWorld(r)
		lay := layoutOf(c)
		if lay.numNodes() != 8 {
			t.Errorf("nodes = %d", lay.numNodes())
		}
		for i := 0; i < 8; i++ {
			if len(lay.a[i]) != 4 || len(lay.b[i]) != 4 || len(lay.all[i]) != 8 {
				t.Errorf("node %d: |A|=%d |B|=%d |all|=%d", i, len(lay.a[i]), len(lay.b[i]), len(lay.all[i]))
			}
		}
		if indexIn(lay.a[0], 2) != 2 || indexIn(lay.a[0], 99) != -1 {
			t.Error("indexIn wrong")
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Scatter binding puts alternating ranks on each socket.
	cfgS := cfg64()
	cfgS.Bind = topology.BindScatter
	w2, err := mpi.NewWorld(cfgS)
	if err != nil {
		t.Fatal(err)
	}
	w2.Launch(func(r *mpi.Rank) {
		if r.ID() != 0 {
			return
		}
		lay := layoutOf(mpi.CommWorld(r))
		if got := lay.a[0]; len(got) != 4 || got[0] != 0 || got[1] != 2 {
			t.Errorf("scatter-bound socket A ranks = %v", got)
		}
	})
	if _, err := w2.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestPowerThresholdPassthrough: below the threshold, power-aware calls
// run the default algorithm at full speed (no DVFS transitions, no
// throttle residue, identical timing).
func TestPowerThresholdPassthrough(t *testing.T) {
	elapsed := func(mode PowerMode, bytes int64) simtime.Duration {
		d, _ := run(t, cfg32x8(), func(r *mpi.Rank) {
			Bcast(mpi.CommWorld(r), 0, bytes, Options{Power: mode})
		})
		return d
	}
	small := int64(DefaultPowerThreshold) - 1
	if a, b := elapsed(NoPower, small), elapsed(Proposed, small); a != b {
		t.Fatalf("below threshold Proposed (%v) must equal NoPower (%v)", b, a)
	}
	// At or above the threshold the schemes diverge.
	big := int64(DefaultPowerThreshold) * 4
	if a, b := elapsed(NoPower, big), elapsed(Proposed, big); a == b {
		t.Fatalf("above threshold Proposed should differ from NoPower (both %v)", a)
	}
}
