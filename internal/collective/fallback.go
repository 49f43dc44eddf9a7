package collective

import (
	"pacc/internal/mpi"
	"pacc/internal/obs"
)

// Graceful degradation for the topology-aware collectives: when the
// fabric reports degraded links, the rack-hierarchy schedules — which
// concentrate traffic on a few leader links — are the wrong shape, so
// the collectives agree to fall back to contention-minimal flat
// variants (binomial trees, neighbor rings) for the rest of the run's
// faulted window. The decision is recorded through the observability
// bus so it shows up in the exported trace and metrics.

// faultAware reports whether the job runs with an active fault injector;
// only then do collectives pay for health agreement. The gate is
// config-derived, so every rank branches identically, and fault-free
// runs keep their exact historical schedules (the nil-injector no-op
// guarantee).
func faultAware(c *mpi.Comm) bool { return c.World().Injector().Enabled() }

// agreeOnFallback decides — consistently across the communicator —
// whether this collective should abandon its topology-aware schedule.
// Ranks reach a collective at different simulated times, so each one
// sampling fabric health independently could diverge and deadlock on
// mismatched schedules; instead comm rank 0 samples and binomially
// broadcasts the verdict, the agreement discipline a subnet-manager
// client would use.
func agreeOnFallback(c *mpi.Comm, block int) bool {
	me, n := c.Rank(), c.Size()
	verdict := 0.0
	if me == 0 && c.Owner().Degraded() {
		verdict = 1
	}
	for mask := 1; mask < n; mask <<= 1 {
		if me < mask {
			if peer := me + mask; peer < n {
				c.SendValues(peer, 0, ctrlTag(block, (1<<13)+peer), verdict)
			}
		} else if me < mask<<1 {
			vs, err := c.RecvValues(me-mask, 0, ctrlTag(block, (1<<13)+me), 1)
			if err == nil {
				verdict = vs[0]
			}
		}
	}
	return verdict != 0
}

// fallbackToFlat runs the health agreement for one topology-aware
// collective; when the fabric is degraded it records the decision and
// reports true so the caller runs the flat variant instead.
func fallbackToFlat(c *mpi.Comm, op string) bool {
	if !faultAware(c) {
		return false
	}
	if !agreeOnFallback(c, c.TagBlock()) {
		return false
	}
	r := c.Owner()
	if b := r.World().Obs(); b != nil && c.Rank() == 0 {
		b.Add(obs.CtrCollectiveFallbacks, 1)
		b.Instant(r.ObsTrack(), "fallback "+op+" → binomial (degraded fabric)",
			map[string]any{"links": r.World().Fabric().DegradedLinks()})
	}
	return true
}

// AllreduceTopoAware combines bytes across all ranks through the rack
// hierarchy: intra-node reduction to node leaders, leader exchange
// (recursive doubling on a healthy fabric, a neighbor ring after a
// degradation fallback), intra-node broadcast back. It is AllreduceSum
// with a zero contribution, so opt.Verify runs it checked too.
func AllreduceTopoAware(c *mpi.Comm, bytes int64, opt Options) error {
	_, err := AllreduceSum(c, bytes, 0, opt)
	return err
}

// AllreduceSum is AllreduceTopoAware carrying a real float64 sum through
// the simulated message schedule (the wire board): every rank
// contributes v and receives the global sum, so tests can verify data
// correctness end-to-end under injected faults, not just termination.
// With opt.Verify set the call runs as allreduce_topo_checked: a
// checksum lane rides every message and a verification fold ends the
// call, so a corrupted result comes back alongside a VerificationError.
// Without an agreement round only the ranks downstream of the corruption
// observe the mismatch; callers that need a group-consistent verdict use
// AllreduceSumFT.
func AllreduceSum(c *mpi.Comm, bytes int64, v float64, opt Options) (float64, error) {
	op := "allreduce_topo"
	if opt.Verify {
		op += "_checked"
	}
	out := redVal{v: v, chk: v, checked: opt.Verify}
	err := runFixedSize(c, op, bytes, opt, func(opt Options) error {
		var vErr error
		runScheme(c, opt, func(bool) {
			out, vErr = runVerified(c, op, bytes, out, func(a redVal) (redVal, error) {
				return allreduceSum(c, bytes, a, opt), nil
			})
		})
		return vErr
	})
	return out.v, err
}

// allreduceSum moves a redVal through the topology-aware schedule: one
// lane for the historical unchecked call, two for the checked variant
// (the checksum shadow rides the same messages). Accumulator writes pass
// through the memory-corruption injector, so an active fault.MemBurst
// can flip a mantissa bit exactly where real hardware would — in the
// reduction buffer, after the transport's ICRC stopped watching.
func allreduceSum(c *mpi.Comm, bytes int64, a redVal, opt Options) redVal {
	r := c.Owner()
	sum := corruptRed(r, a)
	if c.Size() == 1 {
		return sum
	}
	block := c.TagBlock()
	fallback := faultAware(c) && agreeOnFallback(c, block)
	shmC, leadC := c.SplitByNode()
	b := r.World().Obs()

	// Phase 1 (intra-node): locals reduce onto the node leader.
	timePhase(c, opt.Trace, PhaseIntra, func() {
		if shmC.Size() <= 1 {
			return
		}
		if shmC.Rank() != 0 {
			sendRed(shmC, 0, bytes, ctrlTag(block, (1<<14)+shmC.Rank()), sum)
			return
		}
		for i := 1; i < shmC.Size(); i++ {
			x, err := recvRed(shmC, i, bytes, ctrlTag(block, (1<<14)+i), a.checked)
			if err == nil {
				sum = sum.add(x)
			}
			reduceOp(c, bytes)
			sum = corruptRed(r, sum)
		}
	})

	// Phase 2 (inter-node): leader exchange.
	if leadC != nil && leadC.Size() > 1 {
		timePhase(c, opt.Trace, PhaseNetwork, func() {
			p := leadC.Size()
			useRing := fallback || !isPow2(p)
			var sp obs.SpanHandle
			if fallback && leadC.Rank() == 0 {
				b.Add(obs.CtrCollectiveFallbacks, 1)
				sp = b.Begin(r.ObsTrack(), "fallback ring (degraded fabric)",
					map[string]any{"links": r.World().Fabric().DegradedLinks()})
			}
			if useRing {
				sum = ringSum(leadC, c, block, bytes, sum)
			} else {
				sum = rdSum(leadC, c, block, bytes, sum)
			}
			sp.End()
		})
	}

	// Phase 3 (intra-node): leader publishes the result.
	timePhase(c, opt.Trace, PhaseIntra, func() {
		if shmC.Size() <= 1 {
			return
		}
		if shmC.Rank() == 0 {
			for i := 1; i < shmC.Size(); i++ {
				sendRed(shmC, i, bytes, ctrlTag(block, (1<<15)+i), sum)
			}
			return
		}
		if x, err := recvRed(shmC, 0, bytes, ctrlTag(block, (1<<15)+shmC.Rank()), a.checked); err == nil {
			sum = corruptRed(r, x)
		}
	})
	return sum
}

// rdSum runs recursive doubling over lc (power-of-two size): log p rounds
// of pairwise exchange, every leader's link active every round — the
// fastest schedule on a healthy fabric.
func rdSum(lc *mpi.Comm, c *mpi.Comm, block int, bytes int64, v redVal) redVal {
	n, me := lc.Size(), lc.Rank()
	r := c.Owner()
	for mask := 1; mask < n; mask <<= 1 {
		peer := me ^ mask
		tag := lc.PairTag(block, me, peer) + (1<<17)*logOf(mask)
		rq := lc.Irecv(peer, bytes, tag)
		sendRed(lc, peer, bytes, tag, v)
		rq.Wait()
		// The Irecv/send split keeps the exchange deadlock-free; the wire
		// lanes of the already-received message are picked up afterwards.
		if ls, err := lc.TakeWires(peer, tag, laneCount(v.checked)); err == nil {
			v = v.add(redOf(ls, v.checked))
		}
		reduceOp(c, bytes)
		v = corruptRed(r, v)
	}
	return v
}

// ringSum reduces along the neighbor ring to leader 0, then passes the
// total back around: 2(p-1) sequential hops, but each hop occupies only
// one uplink/downlink pair, so no transfer shares a degraded link with
// another — the contention-minimal fallback shape.
func ringSum(lc *mpi.Comm, c *mpi.Comm, block int, bytes int64, v redVal) redVal {
	p, me := lc.Size(), lc.Rank()
	r := c.Owner()
	// Reduce: partial sums flow p-1 → p-2 → … → 0.
	if me < p-1 {
		x, err := recvRed(lc, me+1, bytes, ctrlTag(block, (1<<16)+me), v.checked)
		if err == nil {
			v = v.add(x)
		}
		reduceOp(c, bytes)
		v = corruptRed(r, v)
	}
	if me > 0 {
		sendRed(lc, me-1, bytes, ctrlTag(block, (1<<16)+me-1), v)
		// Broadcast: the total flows 0 → 1 → … → p-1.
		x, err := recvRed(lc, me-1, bytes, ctrlTag(block, (1<<16)+(1<<10)+me), v.checked)
		if err == nil {
			v = corruptRed(r, x)
		}
	}
	if me < p-1 {
		sendRed(lc, me+1, bytes, ctrlTag(block, (1<<16)+(1<<10)+me+1), v)
	}
	return v
}
