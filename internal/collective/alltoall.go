package collective

import (
	"pacc/internal/mpi"
	"pacc/internal/power"
)

// bruckThreshold is the per-pair message size at or below which Alltoall
// uses the hypercube (Bruck) algorithm, mirroring MVAPICH2's small-message
// cutover (§IV-A).
const bruckThreshold = 8 << 10

// Alltoall performs a personalized all-to-all exchange: every rank sends a
// distinct block of bytes to every other rank. The algorithm follows
// MVAPICH2: Bruck for small messages, pairwise exchange for large ones.
// Options.Power selects the power scheme; Proposed uses the paper's
// phased, throttling-aware schedule (§V-A). Plan-backed.
func Alltoall(c *mpi.Comm, bytes int64, opt Options) error {
	return runFixedSize(c, "alltoall", bytes, opt, func(opt Options) error {
		if bytes <= bruckThreshold && opt.Power != Proposed {
			return bruckPlanned(c, bytes, opt)
		}
		return pairwisePlanned(c, bytes, opt)
	})
}

// AlltoallPairwise runs the pairwise-exchange algorithm regardless of
// message size (the paper's large-message baseline; §V-A phased schedule
// under Proposed). Plan-backed.
func AlltoallPairwise(c *mpi.Comm, bytes int64, opt Options) error {
	return runFixedSize(c, "alltoall_pairwise", bytes, opt, func(opt Options) error {
		return pairwisePlanned(c, bytes, opt)
	})
}

// AlltoallBruck runs the hypercube algorithm regardless of message size.
// Bruck is only used for small messages, where the phased schedule has
// nothing to hide behind, so both power-aware schemes reduce to per-call
// DVFS. Plan-backed.
func AlltoallBruck(c *mpi.Comm, bytes int64, opt Options) error {
	return runFixedSize(c, "alltoall_bruck", bytes, opt, func(opt Options) error {
		return bruckPlanned(c, bytes, opt)
	})
}

// pairwisePlanned and bruckPlanned are the plan-backed bodies Alltoall
// shares with AlltoallPairwise and AlltoallBruck. The pairwise schedule
// is the §V-A phased one under Proposed.
func pairwisePlanned(c *mpi.Comm, bytes int64, opt Options) error {
	canonical := "alltoall_pairwise"
	if opt.Power == Proposed {
		canonical = "alltoall_phased"
	}
	return runPlanned(c, "alltoall", canonical, planSpec(bytes, nil, opt), opt,
		func(throttle bool) { alltoallPairwiseOrPhased(c, constSize(bytes), opt, throttle) })
}

func bruckPlanned(c *mpi.Comm, bytes int64, opt Options) error {
	return runPlanned(c, "alltoall", "alltoall_bruck", planSpec(bytes, nil, opt), opt,
		func(bool) { alltoallBruck(c, bytes) })
}

// Alltoallv performs a personalized exchange with per-pair sizes:
// sizeOf(src, dst) is the number of bytes src sends to dst (communicator
// ranks). All ranks must pass size functions that agree. Zero-size pairs
// are legal; negative sizes are rejected.
func Alltoallv(c *mpi.Comm, sizeOf func(src, dst int) int64, opt Options) error {
	if err := checkSizeMatrix("alltoallv", c.Size(), sizeOf); err != nil {
		return err
	}
	timeCollective(c, opt, "alltoallv", -1, func() {
		runScheme(c, opt, func(throttle bool) { alltoallPairwiseOrPhased(c, sizeOf, opt, throttle) })
	})
	return nil
}

// alltoallPairwiseOrPhased runs the imperative pairwise schedule, or the
// §V-A phased schedule in its place when throttle is set.
func alltoallPairwiseOrPhased(c *mpi.Comm, sizeOf func(src, dst int) int64, opt Options, throttle bool) {
	if throttle {
		alltoallPowerAware(c, sizeOf, opt)
		return
	}
	alltoallPairwise(c, sizeOf, opt)
}

func constSize(bytes int64) func(src, dst int) int64 {
	return func(src, dst int) int64 { return bytes }
}

// exchangeWith performs the blocking pairwise exchange of one step:
// send my block to peer and receive peer's block, with the canonical pair
// tag so arbitrary schedule orders still match.
func exchangeWith(c *mpi.Comm, block, peer int, sizeOf func(src, dst int) int64) {
	me := c.Rank()
	tag := c.PairTag(block, me, peer)
	c.Exchange(peer, sizeOf(me, peer), tag, peer, sizeOf(peer, me), tag)
}

// alltoallPairwise is the classic pairwise-exchange schedule: P-1 steps,
// XOR partnering for power-of-two communicators, ring offsets otherwise.
// With MVAPICH2 bunch binding the first c-1 steps stay inside the node and
// the remaining P-c cross the network (§V-A).
func alltoallPairwise(c *mpi.Comm, sizeOf func(src, dst int) int64, opt Options) {
	p, me := c.Size(), c.Rank()
	localCopy(c, sizeOf(me, me))
	if p <= 1 {
		return
	}
	block := c.TagBlock()
	pow2 := isPow2(p)
	for i := 1; i < p; i++ {
		var peer int
		if pow2 {
			peer = me ^ i
		} else {
			peer = (me + i) % p
		}
		intra := c.SameNode(me, peer)
		name := PhaseNetwork
		if intra {
			name = PhaseIntra
		}
		timePhase(c, opt.Trace, name, func() {
			if pow2 {
				exchangeWith(c, block, peer, sizeOf)
				return
			}
			// Ring offsets: send to (me+i), receive from (me-i).
			from := (me - i + p) % p
			c.Exchange(peer, sizeOf(me, peer), c.PairTag(block, me, peer),
				from, sizeOf(from, me), c.PairTag(block, from, me))
		})
	}
}

// alltoallBruck is the store-and-forward hypercube algorithm [21]: in
// round k every rank ships the blocks whose destination index has bit k
// set to rank+2^k. Each round moves ~P/2 blocks, so it wins for small
// messages where startup dominates.
func alltoallBruck(c *mpi.Comm, bytes int64) {
	p, me := c.Size(), c.Rank()
	if p <= 1 {
		localCopy(c, bytes)
		return
	}
	block := c.TagBlock()
	// Initial rotation: block i moves to position (i-me) mod p.
	localCopy(c, int64(p)*bytes)
	round := 0
	for dist := 1; dist < p; dist <<= 1 {
		cnt := 0
		for i := 1; i < p; i++ {
			if i&dist != 0 {
				cnt++
			}
		}
		to := (me + dist) % p
		from := (me - dist + p) % p
		tag := block + round
		c.Exchange(to, int64(cnt)*bytes, tag, from, int64(cnt)*bytes, tag)
		round++
	}
	// Final inverse rotation.
	localCopy(c, int64(p)*bytes)
}

// alltoallPowerAware is the paper's §V-A algorithm (Figure 3). The caller
// already scaled all cores to fmin. The schedule is:
//
//	Phase 1: intra-node pairwise exchanges (c steps including self).
//	Phase 2: socket-A processes exchange with socket-A processes of every
//	         other node while socket B sits fully throttled (T7).
//	Phase 3: roles swap: B exchanges B-to-B, A sits at T7.
//	Phase 4: N-1 tournament rounds over node pairs (i, k), i < k: first
//	         A_i <-> B_k (B_i and A_k at T7), then B_i <-> A_k.
//
// Communicators whose nodes lack a populated second socket (e.g. a 4-way
// bunch layout) fall back to the plain pairwise schedule — the paper's
// algorithm assumes the §V-C bunch mapping with both sockets in use.
func alltoallPowerAware(c *mpi.Comm, sizeOf func(src, dst int) int64, opt Options) {
	r := c.Owner()
	p, me := c.Size(), c.Rank()
	if p <= 1 {
		localCopy(c, sizeOf(me, me))
		return
	}
	lay := layoutOf(c)
	n := lay.numNodes()
	myNodeIdx := lay.idxOfNode[c.NodeOf(me)]
	for i := 0; i < n; i++ {
		if len(lay.a[i]) != len(lay.b[i]) || len(lay.a[i]) == 0 {
			alltoallPairwise(c, sizeOf, opt)
			return
		}
	}
	block := c.TagBlock()
	groupA, groupB := lay.a[myNodeIdx], lay.b[myNodeIdx]
	inA := indexIn(groupA, me) >= 0
	var myIdx int
	var buddy int // same index in the opposite socket group of my node
	if inA {
		myIdx = indexIn(groupA, me)
		buddy = groupB[myIdx]
	} else {
		myIdx = indexIn(groupB, me)
		buddy = groupA[myIdx]
	}
	// Notification tags live above the pair-tag region (p^2 <= 2^18 for
	// supported sizes).
	notify := func(sub int) int { return block + (1 << 18) + sub }

	// Phase 1: all intra-node exchanges, self block included. The
	// tournament pairing is mutual, so each step's blocking exchange
	// has both endpoints participating simultaneously.
	timePhase(c, opt.Trace, PhaseIntra, func() {
		localCopy(c, sizeOf(me, me))
		locals := lay.all[myNodeIdx]
		li := indexIn(locals, me)
		m := len(locals)
		for s := 1; s <= tournamentRounds(m); s++ {
			pi := tournamentPeer(m, s, li)
			if pi < 0 || pi >= m {
				continue
			}
			exchangeWith(c, block, locals[pi], sizeOf)
		}
	})
	if n < 2 {
		return
	}

	// crossNodeSweep exchanges with one group of ranks on a peer node:
	// k sub-steps, sub-step x pairing my group index a with peer index
	// (x - a) mod k — mutual, so both sides meet in the same sub-step.
	crossNodeSweep := func(peers []int) {
		k := len(peers)
		for x := 0; x < k; x++ {
			exchangeWith(c, block, peers[((x-myIdx)%k+k)%k], sizeOf)
		}
	}

	// sameSocketSweep runs phases 2 and 3: a node-level tournament, in
	// each round exchanging with the same-socket group of the paired
	// node.
	sameSocketSweep := func(groups [][]int) {
		for s := 1; s <= tournamentRounds(n); s++ {
			peerIdx := tournamentPeer(n, s, myNodeIdx)
			if peerIdx < 0 || peerIdx >= n {
				continue
			}
			crossNodeSweep(groups[peerIdx])
		}
	}

	// Phase 2: A active, B throttled. B's throttle-down cost hides
	// behind A's communication (§VI-A.2).
	timePhase(c, opt.Trace, PhasePhase2, func() {
		if inA {
			sameSocketSweep(lay.a)
			r.Send(c.Global(buddy), 0, notify(0))
		} else {
			r.SetThrottle(opt.deepT())
			r.Recv(c.Global(buddy), 0, notify(0))
			r.SetThrottle(power.T0)
		}
	})

	// Phase 3: B active, A throttled.
	timePhase(c, opt.Trace, PhasePhase3, func() {
		if !inA {
			sameSocketSweep(lay.b)
			r.Send(c.Global(buddy), 0, notify(1))
		} else {
			r.SetThrottle(opt.deepT())
			r.Recv(c.Global(buddy), 0, notify(1))
			r.SetThrottle(power.T0)
		}
	})

	// Phase 4: cross-socket exchanges over node pairs. In each round my
	// node is paired with one peer node (tournament schedule so the
	// pairing is mutual); within the round the lower-indexed node's A
	// group goes first.
	timePhase(c, opt.Trace, PhasePhase4, func() {
		for round := 1; round <= tournamentRounds(n); round++ {
			peerIdx := tournamentPeer(n, round, myNodeIdx)
			if peerIdx < 0 || peerIdx >= n {
				// Bye round (odd node count): idle fully throttled.
				continue
			}
			// Sub-step 1: A of the lower node with B of the higher.
			activeFirst := inA == (myNodeIdx < peerIdx)
			if activeFirst {
				if inA {
					crossNodeSweep(lay.b[peerIdx])
				} else {
					crossNodeSweep(lay.a[peerIdx])
				}
				r.Send(c.Global(buddy), 0, notify(2+2*round))
				// Sub-step 2: wait fully throttled for the buddy.
				r.SetThrottle(opt.deepT())
				r.Recv(c.Global(buddy), 0, notify(3+2*round))
				r.SetThrottle(power.T0)
			} else {
				r.SetThrottle(opt.deepT())
				r.Recv(c.Global(buddy), 0, notify(2+2*round))
				r.SetThrottle(power.T0)
				if inA {
					crossNodeSweep(lay.b[peerIdx])
				} else {
					crossNodeSweep(lay.a[peerIdx])
				}
				r.Send(c.Global(buddy), 0, notify(3+2*round))
			}
		}
	})
}
