package collective

import (
	"fmt"

	"pacc/internal/plan"
	"pacc/internal/power"
)

// Plan builders: the stock algorithms expressed as schedule IR. Each
// builder replicates its imperative ancestor step for step — same peers,
// same payload sizes, same relative tag formulas, same phase markers and
// power transitions — so that executing the built plan is observably
// identical (simulated time, per-core energy, exported trace) to calling
// the original function. The differential tests in plandiff_test.go hold
// the two forms to that standard.

func init() {
	plan.Register(plan.Builder{Name: "allgather_ring", Op: "allgather", Build: buildAllgatherRing})
	plan.Register(plan.Builder{Name: "allgather_rd", Op: "allgather", Build: buildAllgatherRD})
	plan.Register(plan.Builder{Name: "allreduce_rd", Op: "allreduce", Build: buildAllreduceRD})
	plan.Register(plan.Builder{Name: "allreduce_chain", Op: "allreduce", Build: buildAllreduceChain})
	plan.Register(plan.Builder{Name: "bcast_binomial", Op: "bcast", Build: buildBcastBinomial})
	plan.Register(plan.Builder{Name: "alltoall_pairwise", Op: "alltoall", Build: buildAlltoallPairwise})
	plan.Register(plan.Builder{Name: "alltoall_bruck", Op: "alltoall", Build: buildAlltoallBruck})
	plan.Register(plan.Builder{Name: "alltoall_phased", Op: "alltoall", Build: buildAlltoallPhased})
}

// relPair mirrors Comm.PairTag without the block offset: the canonical
// tag of the unordered rank pair (a, b) in a communicator of p ranks.
func relPair(p, a, b int) int {
	if a > b {
		a, b = b, a
	}
	return a*p + b
}

// relCtrl mirrors ctrlTag without the block offset.
func relCtrl(k int) int { return (1 << 18) + k }

// relRing is the tag base of ring steps (above the pair-tag region).
const relRing = 1 << 17

// bracketDVFS wraps every rank's schedule in the per-call DVFS
// transitions (all cores to fmin before the first step, back to fmax
// after the last) when the spec asks for frequency scaling — the plan
// form of runScheme.
func bracketDVFS(pl *plan.Plan, s plan.Spec) {
	if !s.FreqScale {
		return
	}
	for r := 0; r < pl.P; r++ {
		steps := make([]plan.Step, 0, len(pl.Steps[r])+2)
		steps = append(steps, plan.Step{Op: plan.OpPower, Power: plan.PowerAction{Kind: plan.PowerFreqMin}})
		steps = append(steps, pl.Steps[r]...)
		steps = append(steps, plan.Step{Op: plan.OpPower, Power: plan.PowerAction{Kind: plan.PowerFreqMax}})
		pl.Steps[r] = steps
	}
}

// uniformContract declares the same send/recv coverage on every rank.
func uniformContract(p int, send, recv int64) *plan.Contract {
	c := &plan.Contract{SendBytes: make([]int64, p), RecvBytes: make([]int64, p)}
	for r := 0; r < p; r++ {
		c.SendBytes[r] = send
		c.RecvBytes[r] = recv
	}
	return c
}

// alltoallContract declares full personalized coverage: every rank sends
// its row of the size matrix (self block excluded — it moves by local
// copy) and receives its column.
func alltoallContract(p int, s plan.Spec) *plan.Contract {
	c := &plan.Contract{SendBytes: make([]int64, p), RecvBytes: make([]int64, p)}
	for me := 0; me < p; me++ {
		for other := 0; other < p; other++ {
			if other == me {
				continue
			}
			c.SendBytes[me] += s.Size(me, other)
			c.RecvBytes[me] += s.Size(other, me)
		}
	}
	return c
}

func uniformOnly(name string, s plan.Spec) error {
	if s.SizeOf != nil {
		return fmt.Errorf("plan: %s builds uniform schedules only (per-pair sizes unsupported)", name)
	}
	return nil
}

// buildAllgatherRing is the flat ring: P-1 steps, each rank forwarding
// one block to the right while receiving one from the left.
func buildAllgatherRing(v plan.View, s plan.Spec) (*plan.Plan, error) {
	if err := uniformOnly("allgather_ring", s); err != nil {
		return nil, err
	}
	pl := plan.NewPlan("allgather_ring", v.P)
	pl.NodeOf = v.NodeOf
	p := v.P
	for me := 0; me < p; me++ {
		rs := pl.Rank(me)
		right := (me + 1) % p
		left := (me - 1 + p) % p
		for st := 0; st < p-1; st++ {
			tag := relRing + st
			rs.SendRecv(right, s.Bytes, tag, left, s.Bytes, tag)
		}
	}
	// The imperative form reserves its tag block before checking the
	// communicator size, so even a 1-rank call consumes one.
	pl.NeedsTagBlock = true
	per := int64(p-1) * s.Bytes
	pl.Contract = uniformContract(p, per, per)
	bracketDVFS(pl, s)
	return pl, nil
}

// buildAllgatherRD is recursive doubling (power-of-two communicators):
// log2(P) rounds, the exchanged volume doubling every round.
func buildAllgatherRD(v plan.View, s plan.Spec) (*plan.Plan, error) {
	if err := uniformOnly("allgather_rd", s); err != nil {
		return nil, err
	}
	if !isPow2(v.P) {
		return nil, fmt.Errorf("plan: allgather_rd needs a power-of-two communicator, got %d ranks", v.P)
	}
	pl := plan.NewPlan("allgather_rd", v.P)
	pl.NodeOf = v.NodeOf
	p := v.P
	for me := 0; me < p; me++ {
		rs := pl.Rank(me)
		have := s.Bytes
		for mask := 1; mask < p; mask <<= 1 {
			peer := me ^ mask
			tag := relPair(p, me, peer) + (1<<17)*logOf(mask)
			rs.SendRecv(peer, have, tag, peer, have, tag)
			have *= 2
		}
	}
	pl.NeedsTagBlock = true
	per := int64(p-1) * s.Bytes
	pl.Contract = uniformContract(p, per, per)
	bracketDVFS(pl, s)
	return pl, nil
}

// buildAllreduceRD is recursive-doubling allreduce (power-of-two
// communicators): every round exchanges the full vector with the XOR
// partner and folds it in.
func buildAllreduceRD(v plan.View, s plan.Spec) (*plan.Plan, error) {
	if err := uniformOnly("allreduce_rd", s); err != nil {
		return nil, err
	}
	if !isPow2(v.P) {
		return nil, fmt.Errorf("plan: allreduce_rd needs a power-of-two communicator, got %d ranks", v.P)
	}
	pl := plan.NewPlan("allreduce_rd", v.P)
	pl.NodeOf = v.NodeOf
	p := v.P
	rounds := 0
	for me := 0; me < p; me++ {
		rs := pl.Rank(me)
		rounds = 0
		for mask := 1; mask < p; mask <<= 1 {
			peer := me ^ mask
			tag := relPair(p, me, peer) + (1<<17)*logOf(mask)
			rs.SendRecv(peer, s.Bytes, tag, peer, s.Bytes, tag)
			rs.Reduce(s.Bytes)
			rounds++
		}
		if s.Verify {
			rs.Verify(s.Bytes)
		}
	}
	pl.NeedsTagBlock = true
	per := int64(rounds) * s.Bytes
	pl.Contract = uniformContract(p, per, per)
	bracketDVFS(pl, s)
	return pl, nil
}

// buildAllreduceChain is the serial chain allreduce: reduce toward rank 0
// along the chain (p-1 → p-2 → ... → 0), then broadcast the total back
// down it. O(P) latency against recursive doubling's O(log P), but it
// builds for any communicator size — it exists so the resilient path has
// an applicable builder after a crash shrinks a power-of-two group to an
// odd survivor count.
func buildAllreduceChain(v plan.View, s plan.Spec) (*plan.Plan, error) {
	if err := uniformOnly("allreduce_chain", s); err != nil {
		return nil, err
	}
	pl := plan.NewPlan("allreduce_chain", v.P)
	pl.NodeOf = v.NodeOf
	p := v.P
	contract := &plan.Contract{SendBytes: make([]int64, p), RecvBytes: make([]int64, p)}
	for me := 0; me < p; me++ {
		rs := pl.Rank(me)
		if p == 1 {
			if s.Verify {
				rs.Verify(s.Bytes)
			}
			continue
		}
		// Reduce phase: the up edge from k to k-1 carries tag relRing+k.
		if me < p-1 {
			rs.Recv(me+1, s.Bytes, relRing+me+1)
			rs.Reduce(s.Bytes)
			contract.RecvBytes[me] += s.Bytes
		}
		if me > 0 {
			rs.Send(me-1, s.Bytes, relRing+me)
			contract.SendBytes[me] += s.Bytes
			// Bcast phase: the down edge from k-1 to k carries relCtrl(k-1).
			rs.Recv(me-1, s.Bytes, relCtrl(me-1))
			contract.RecvBytes[me] += s.Bytes
		}
		if me < p-1 {
			rs.Send(me+1, s.Bytes, relCtrl(me))
			contract.SendBytes[me] += s.Bytes
		}
		if s.Verify {
			rs.Verify(s.Bytes)
		}
	}
	pl.NeedsTagBlock = true
	pl.Contract = contract
	bracketDVFS(pl, s)
	return pl, nil
}

// buildBcastBinomial is the classic binomial broadcast tree rooted at
// Spec.Root: each rank receives once from its parent, then forwards to
// children at decreasing power-of-two distances.
func buildBcastBinomial(v plan.View, s plan.Spec) (*plan.Plan, error) {
	if err := uniformOnly("bcast_binomial", s); err != nil {
		return nil, err
	}
	root := s.Root
	if root < 0 || root >= v.P {
		return nil, fmt.Errorf("plan: bcast_binomial root %d outside [0,%d)", root, v.P)
	}
	pl := plan.NewPlan("bcast_binomial", v.P)
	pl.NodeOf = v.NodeOf
	p := v.P
	contract := &plan.Contract{SendBytes: make([]int64, p), RecvBytes: make([]int64, p)}
	for me := 0; me < p; me++ {
		rs := pl.Rank(me)
		if p == 1 {
			continue
		}
		vr := (me - root + p) % p
		mask := 1
		for mask < p && vr&mask == 0 {
			mask <<= 1
		}
		if vr != 0 {
			parent := ((vr - mask) + root) % p
			rs.Recv(parent, s.Bytes, relPair(p, parent, me))
			contract.RecvBytes[me] = s.Bytes
		} else {
			for mask < p {
				mask <<= 1
			}
		}
		for m := mask >> 1; m >= 1; m >>= 1 {
			if vr+m < p {
				child := (vr + m + root) % p
				rs.Send(child, s.Bytes, relPair(p, me, child))
				contract.SendBytes[me] += s.Bytes
			}
		}
	}
	pl.NeedsTagBlock = true // block reserved before the size check in the imperative form
	pl.Contract = contract
	bracketDVFS(pl, s)
	return pl, nil
}

// buildAlltoallPairwise is the pairwise-exchange alltoall: P-1 steps with
// XOR partnering on power-of-two communicators and ring offsets
// otherwise, each step tagged with the phase (intra/network) its peer's
// placement implies. Honors per-pair sizes, so it also backs the v
// variant.
func buildAlltoallPairwise(v plan.View, s plan.Spec) (*plan.Plan, error) {
	pl := plan.NewPlan("alltoall_pairwise", v.P)
	pl.NodeOf = v.NodeOf
	p := v.P
	pow2 := isPow2(p)
	for me := 0; me < p; me++ {
		rs := pl.Rank(me)
		rs.Copy(s.Size(me, me))
		if p <= 1 {
			continue
		}
		for i := 1; i < p; i++ {
			var peer int
			if pow2 {
				peer = me ^ i
			} else {
				peer = (me + i) % p
			}
			name := PhaseNetwork
			if v.NodeOf != nil && v.NodeOf[me] == v.NodeOf[peer] {
				name = PhaseIntra
			}
			rs.PhaseBegin(name)
			if pow2 {
				tag := relPair(p, me, peer)
				rs.SendRecv(peer, s.Size(me, peer), tag, peer, s.Size(peer, me), tag)
			} else {
				// Ring offsets: send to (me+i), receive from (me-i).
				from := (me - i + p) % p
				rs.SendRecv(peer, s.Size(me, peer), relPair(p, me, peer),
					from, s.Size(from, me), relPair(p, from, me))
			}
			rs.PhaseEnd()
		}
	}
	// A 1-rank imperative call returns before reserving a tag block, and
	// the builder mirrors that: NeedsTagBlock stays false with no steps.
	pl.Contract = alltoallContract(p, s)
	bracketDVFS(pl, s)
	return pl, nil
}

// buildAlltoallBruck is the store-and-forward hypercube alltoall:
// ceil(log2 P) rounds, round k shipping every block whose destination
// index has bit k set, with a rotation copy on each end.
func buildAlltoallBruck(v plan.View, s plan.Spec) (*plan.Plan, error) {
	if err := uniformOnly("alltoall_bruck", s); err != nil {
		return nil, err
	}
	pl := plan.NewPlan("alltoall_bruck", v.P)
	pl.NodeOf = v.NodeOf
	p := v.P
	var per int64
	for me := 0; me < p; me++ {
		rs := pl.Rank(me)
		if p <= 1 {
			rs.Copy(s.Bytes)
			continue
		}
		rs.Copy(int64(p) * s.Bytes) // initial rotation
		round := 0
		per = 0
		for dist := 1; dist < p; dist <<= 1 {
			cnt := 0
			for i := 1; i < p; i++ {
				if i&dist != 0 {
					cnt++
				}
			}
			to := (me + dist) % p
			from := (me - dist + p) % p
			vol := int64(cnt) * s.Bytes
			rs.SendRecv(to, vol, round, from, vol, round)
			per += vol
			round++
		}
		rs.Copy(int64(p) * s.Bytes) // final inverse rotation
	}
	if p > 1 {
		pl.Contract = uniformContract(p, per, per)
	}
	bracketDVFS(pl, s)
	return pl, nil
}

// buildAlltoallPhased is the §V-A power-aware alltoall (Figure 3): an
// intra-node tournament, two same-socket inter-node sweeps with the idle
// socket throttled deep, and a cross-socket node-pair tournament, with
// zero-byte buddy notifications sequencing the throttle hand-offs.
// Communicators whose nodes lack a populated, equal-size second socket
// fall back to the plain pairwise schedule, exactly like the imperative
// form.
func buildAlltoallPhased(v plan.View, s plan.Spec) (*plan.Plan, error) {
	p := v.P
	if p <= 1 {
		pl := plan.NewPlan("alltoall_phased", p)
		pl.NodeOf = v.NodeOf
		for me := 0; me < p; me++ {
			pl.Rank(me).Copy(s.Size(me, me))
		}
		pl.Contract = alltoallContract(p, s)
		bracketDVFS(pl, s)
		return pl, nil
	}
	lay := newLayout(p, func(cr int) int { return v.NodeOf[cr] }, func(cr int) bool { return v.SocketA[cr] })
	n := lay.numNodes()
	for i := 0; i < n; i++ {
		if len(lay.a[i]) != len(lay.b[i]) || len(lay.a[i]) == 0 {
			pl, err := buildAlltoallPairwise(v, s)
			if err != nil {
				return nil, err
			}
			pl.Name = "alltoall_phased" // pairwise fallback schedule
			return pl, nil
		}
	}
	deep := s.DeepT
	if deep == power.T0 {
		deep = power.T7
	}
	pl := plan.NewPlan("alltoall_phased", p)
	pl.NodeOf = v.NodeOf

	for me := 0; me < p; me++ {
		rs := pl.Rank(me)
		myNodeIdx := lay.idxOfNode[v.NodeOf[me]]
		groupA, groupB := lay.a[myNodeIdx], lay.b[myNodeIdx]
		inA := indexIn(groupA, me) >= 0
		var myIdx, buddy int
		if inA {
			myIdx = indexIn(groupA, me)
			buddy = groupB[myIdx]
		} else {
			myIdx = indexIn(groupB, me)
			buddy = groupA[myIdx]
		}

		exchange := func(peer int) {
			tag := relPair(p, me, peer)
			rs.SendRecv(peer, s.Size(me, peer), tag, peer, s.Size(peer, me), tag)
		}
		crossNodeSweep := func(peers []int) {
			k := len(peers)
			for x := 0; x < k; x++ {
				exchange(peers[((x-myIdx)%k+k)%k])
			}
		}
		sameSocketSweep := func(groups [][]int) {
			for st := 1; st <= tournamentRounds(n); st++ {
				peerIdx := tournamentPeer(n, st, myNodeIdx)
				if peerIdx < 0 || peerIdx >= n {
					continue
				}
				crossNodeSweep(groups[peerIdx])
			}
		}

		// Phase 1: intra-node tournament, self block included.
		rs.PhaseBegin(PhaseIntra)
		rs.Copy(s.Size(me, me))
		locals := lay.all[myNodeIdx]
		li := indexIn(locals, me)
		m := len(locals)
		for st := 1; st <= tournamentRounds(m); st++ {
			pi := tournamentPeer(m, st, li)
			if pi < 0 || pi >= m {
				continue
			}
			exchange(locals[pi])
		}
		rs.PhaseEnd()
		if n < 2 {
			continue
		}

		// Phase 2: A active, B throttled deep.
		rs.PhaseBegin(PhasePhase2)
		if inA {
			sameSocketSweep(lay.a)
			rs.Send(buddy, 0, relCtrl(0))
		} else {
			rs.Throttle(deep)
			rs.Recv(buddy, 0, relCtrl(0))
			rs.Throttle(power.T0)
		}
		rs.PhaseEnd()

		// Phase 3: roles swap.
		rs.PhaseBegin(PhasePhase3)
		if !inA {
			sameSocketSweep(lay.b)
			rs.Send(buddy, 0, relCtrl(1))
		} else {
			rs.Throttle(deep)
			rs.Recv(buddy, 0, relCtrl(1))
			rs.Throttle(power.T0)
		}
		rs.PhaseEnd()

		// Phase 4: cross-socket node-pair tournament; the lower-indexed
		// node's A group goes first in each round.
		rs.PhaseBegin(PhasePhase4)
		for round := 1; round <= tournamentRounds(n); round++ {
			peerIdx := tournamentPeer(n, round, myNodeIdx)
			if peerIdx < 0 || peerIdx >= n {
				continue
			}
			activeFirst := inA == (myNodeIdx < peerIdx)
			if activeFirst {
				if inA {
					crossNodeSweep(lay.b[peerIdx])
				} else {
					crossNodeSweep(lay.a[peerIdx])
				}
				rs.Send(buddy, 0, relCtrl(2+2*round))
				rs.Throttle(deep)
				rs.Recv(buddy, 0, relCtrl(3+2*round))
				rs.Throttle(power.T0)
			} else {
				rs.Throttle(deep)
				rs.Recv(buddy, 0, relCtrl(2+2*round))
				rs.Throttle(power.T0)
				if inA {
					crossNodeSweep(lay.b[peerIdx])
				} else {
					crossNodeSweep(lay.a[peerIdx])
				}
				rs.Send(buddy, 0, relCtrl(3+2*round))
			}
		}
		rs.PhaseEnd()
	}
	pl.Contract = alltoallContract(p, s)
	bracketDVFS(pl, s)
	return pl, nil
}
