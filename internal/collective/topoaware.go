package collective

import (
	"pacc/internal/mpi"
	"pacc/internal/power"
)

// Topology-aware collectives implement the direction sketched in the
// paper's conclusion (§VIII, after [27]): on multi-rack clusters, route
// collectives through per-rack leaders so only one process per rack
// crosses the oversubscribed inter-rack links — and, for the power-aware
// variants, throttle every process in a rack down while its rack leader
// handles the inter-rack phase ("throttling down all the processes in a
// rack, during the inter-rack communication phases").
//
// The hierarchy is root -> rack leaders -> node leaders -> local ranks;
// the last hop uses the shared-memory region like the §V-B collectives.

// rackLayout extends layout with the rack grouping from the fabric
// configuration.
type rackLayout struct {
	lay *layout
	// rackOfNodeIdx maps a node index (in lay) to its rack id.
	rackOfNodeIdx []int
	// racks lists rack ids in first-appearance order; nodeIdxsOf lists
	// the node indices of each rack.
	racks      []int
	nodeIdxsOf map[int][]int
}

func rackLayoutOf(c *mpi.Comm) *rackLayout {
	lay := layoutOf(c)
	fab := c.World().Fabric()
	rl := &rackLayout{lay: lay, nodeIdxsOf: map[int][]int{}}
	seen := map[int]bool{}
	for idx, node := range lay.nodes {
		rk := fab.RackOf(node)
		rl.rackOfNodeIdx = append(rl.rackOfNodeIdx, rk)
		if !seen[rk] {
			seen[rk] = true
			rl.racks = append(rl.racks, rk)
		}
		rl.nodeIdxsOf[rk] = append(rl.nodeIdxsOf[rk], idx)
	}
	return rl
}

// rackLeader returns the comm rank leading a rack: the node leader of the
// rack's first node.
func (rl *rackLayout) rackLeader(rack int) int {
	return rl.lay.all[rl.nodeIdxsOf[rack][0]][0]
}

// ranksInRack counts communicator ranks in a rack.
func (rl *rackLayout) ranksInRack(rack int) int {
	n := 0
	for _, idx := range rl.nodeIdxsOf[rack] {
		n += len(rl.lay.all[idx])
	}
	return n
}

// ScatterTopoAware distributes a distinct block of bytes from root to
// every rank through the rack hierarchy. With Options.Power == Proposed,
// every non-rack-leader waits fully throttled (DeepThrottle) until its
// data arrives, the §VIII power schedule; FreqScaling applies per-call
// DVFS only.
func ScatterTopoAware(c *mpi.Comm, root int, bytes int64, opt Options) error {
	return rackCollective(c, "scatter_topo", root, bytes, opt, Scatter, scatterTopo)
}

// rackCollective is the call path of the rooted rack-hierarchy
// collectives: on a degraded fabric (see fallbackToFlat) it runs the flat
// entry point instead, otherwise the rack schedule under the call's
// power scheme.
func rackCollective(c *mpi.Comm, op string, root int, bytes int64, opt Options,
	flat func(c *mpi.Comm, root int, bytes int64, opt Options) error,
	rack func(c *mpi.Comm, root int, bytes int64, opt Options, throttle bool)) error {
	if err := checkRoot(op, root, c.Size()); err != nil {
		return err
	}
	return runFixedSize(c, op, bytes, opt, func(opt Options) error {
		if fallbackToFlat(c, op) {
			opt.Trace = nil
			return flat(c, root, bytes, opt)
		}
		runScheme(c, opt, func(throttle bool) { rack(c, root, bytes, opt, throttle) })
		return nil
	})
}

func scatterTopo(c *mpi.Comm, root int, bytes int64, opt Options, throttle bool) {
	r := c.Owner()
	me := c.Rank()
	if c.Size() == 1 {
		return
	}
	rl := rackLayoutOf(c)
	lay := rl.lay
	block := c.TagBlock()
	myNodeIdx := lay.idxOfNode[c.NodeOf(me)]
	myRack := rl.rackOfNodeIdx[myNodeIdx]
	nodeLeader := lay.all[myNodeIdx][0]
	rackLeader := rl.rackLeader(myRack)

	// The §VIII schedule: everyone except the root and the rack leaders
	// drops to the deep throttle state until released by its data.
	if throttle && me != root && me != rackLeader {
		r.SetThrottle(opt.deepT())
	}

	// Phase 1 (inter-rack): root ships each rack's aggregate block to
	// the rack leader.
	timePhase(c, opt.Trace, PhaseNetwork, func() {
		if me == root {
			for _, rk := range rl.racks {
				dst := rl.rackLeader(rk)
				if dst == root {
					// The root's own rack block is already in
					// place in its send buffer.
					continue
				}
				size := int64(rl.ranksInRack(rk)) * bytes
				c.Send(dst, size, c.PairTag(block, me, dst))
			}
		}
		if me == rackLeader && me != root {
			size := int64(rl.ranksInRack(myRack)) * bytes
			c.Recv(root, size, c.PairTag(block, root, me))
		}
	})

	// Phase 2 (intra-rack, inter-node): the rack leader ships each
	// node's block to the node leader.
	if me == rackLeader {
		for _, idx := range rl.nodeIdxsOf[myRack] {
			dst := lay.all[idx][0]
			if dst == me {
				continue // own node block already staged
			}
			size := int64(len(lay.all[idx])) * bytes
			c.Send(dst, size, c.PairTag(block, me, dst))
		}
	}
	if me == nodeLeader && me != rackLeader {
		size := int64(len(lay.all[myNodeIdx])) * bytes
		c.Recv(rackLeader, size, c.PairTag(block, rackLeader, me))
		if throttle {
			r.SetThrottle(power.T0)
		}
	}

	// Phase 3 (intra-node): the node leader publishes the node block in
	// the shared region; local ranks copy out their own slice.
	timePhase(c, opt.Trace, PhaseIntra, func() {
		if me == nodeLeader {
			localCopy(c, int64(len(lay.all[myNodeIdx]))*bytes)
			for _, lr := range lay.all[myNodeIdx] {
				if lr != me {
					c.Send(lr, 0, ctrlTag(block, lr))
				}
			}
		} else {
			c.Recv(nodeLeader, 0, ctrlTag(block, me))
			if throttle {
				r.SetThrottle(power.T0)
			}
			localCopy(c, bytes)
		}
	})
}

// BcastTopoAware broadcasts bytes from root through the rack hierarchy:
// root to rack leaders (inter-rack), rack leaders to node leaders
// (intra-rack), node leaders to local ranks via shared memory. With
// Proposed, every non-rack-leader waits fully throttled until its copy
// arrives.
func BcastTopoAware(c *mpi.Comm, root int, bytes int64, opt Options) error {
	return rackCollective(c, "bcast_topo", root, bytes, opt, Bcast, bcastTopo)
}

func bcastTopo(c *mpi.Comm, root int, bytes int64, opt Options, throttle bool) {
	r := c.Owner()
	me := c.Rank()
	if c.Size() == 1 {
		return
	}
	rl := rackLayoutOf(c)
	lay := rl.lay
	block := c.TagBlock()
	myNodeIdx := lay.idxOfNode[c.NodeOf(me)]
	myRack := rl.rackOfNodeIdx[myNodeIdx]
	nodeLeader := lay.all[myNodeIdx][0]
	rackLeader := rl.rackLeader(myRack)

	if throttle && me != root && me != rackLeader {
		r.SetThrottle(opt.deepT())
	}

	// Phase 1 (inter-rack): root to rack leaders, full payload each.
	timePhase(c, opt.Trace, PhaseNetwork, func() {
		if me == root {
			for _, rk := range rl.racks {
				dst := rl.rackLeader(rk)
				if dst != root {
					c.Send(dst, bytes, c.PairTag(block, me, dst))
				}
			}
		}
		if me == rackLeader && me != root {
			c.Recv(root, bytes, c.PairTag(block, root, me))
		}
	})

	// Phase 2 (intra-rack): rack leader to node leaders.
	if me == rackLeader {
		for _, idx := range rl.nodeIdxsOf[myRack] {
			dst := lay.all[idx][0]
			if dst != me {
				c.Send(dst, bytes, c.PairTag(block, me, dst))
			}
		}
	}
	if me == nodeLeader && me != rackLeader {
		c.Recv(rackLeader, bytes, c.PairTag(block, rackLeader, me))
		if throttle {
			r.SetThrottle(power.T0)
		}
	}

	// Phase 3 (intra-node): publish through the shared region.
	timePhase(c, opt.Trace, PhaseIntra, func() {
		if me == nodeLeader {
			localCopy(c, bytes)
			for _, lr := range lay.all[myNodeIdx] {
				if lr != me {
					c.Send(lr, 0, ctrlTag(block, lr))
				}
			}
		} else {
			c.Recv(nodeLeader, 0, ctrlTag(block, me))
			if throttle {
				r.SetThrottle(power.T0)
			}
			localCopy(c, bytes)
		}
	})
}

// GatherTopoAware collects a distinct block of bytes from every rank onto
// root through the rack hierarchy (node leader gathers via shared memory,
// rack leader gathers node blocks, root gathers rack blocks). With
// Proposed, ranks that have delivered their contribution wait fully
// throttled until the root confirms completion, then restore T0.
func GatherTopoAware(c *mpi.Comm, root int, bytes int64, opt Options) error {
	return rackCollective(c, "gather_topo", root, bytes, opt, Gather, gatherTopo)
}

func gatherTopo(c *mpi.Comm, root int, bytes int64, opt Options, throttle bool) {
	r := c.Owner()
	me := c.Rank()
	if c.Size() == 1 {
		return
	}
	rl := rackLayoutOf(c)
	lay := rl.lay
	block := c.TagBlock()
	myNodeIdx := lay.idxOfNode[c.NodeOf(me)]
	myRack := rl.rackOfNodeIdx[myNodeIdx]
	nodeLeader := lay.all[myNodeIdx][0]
	rackLeader := rl.rackLeader(myRack)

	// Phase 1 (intra-node): locals deposit blocks in the shared region.
	timePhase(c, opt.Trace, PhaseIntra, func() {
		if me != nodeLeader {
			localCopy(c, bytes)
			c.Send(nodeLeader, 0, ctrlTag(block, me))
			if throttle {
				r.SetThrottle(opt.deepT())
			}
		} else {
			for _, lr := range lay.all[myNodeIdx] {
				if lr != me {
					c.Recv(lr, 0, ctrlTag(block, lr))
					localCopy(c, bytes)
				}
			}
		}
	})

	// Phase 2: node leaders ship node blocks to the rack leader.
	if me == nodeLeader && me != rackLeader {
		size := int64(len(lay.all[myNodeIdx])) * bytes
		c.Send(rackLeader, size, c.PairTag(block, me, rackLeader))
		if throttle {
			r.SetThrottle(opt.deepT())
		}
	}
	if me == rackLeader {
		for _, idx := range rl.nodeIdxsOf[myRack] {
			src := lay.all[idx][0]
			if src == me {
				continue
			}
			c.Recv(src, int64(len(lay.all[idx]))*bytes, c.PairTag(block, src, me))
		}
	}

	// Phase 3 (inter-rack): rack leaders ship rack blocks to the root.
	timePhase(c, opt.Trace, PhaseNetwork, func() {
		if me == rackLeader && me != root {
			c.Send(root, int64(rl.ranksInRack(myRack))*bytes, c.PairTag(block, me, root))
			if throttle {
				r.SetThrottle(opt.deepT())
			}
		}
		if me == root {
			for _, rk := range rl.racks {
				src := rl.rackLeader(rk)
				if src == me {
					continue
				}
				c.Recv(src, int64(rl.ranksInRack(rk))*bytes, c.PairTag(block, src, me))
			}
		}
	})

	// Release cascade: with throttling, the root confirms completion to
	// the rack leaders, which release node leaders, which release the
	// locals ("throttled up at the end" — §V-B applied rack-wide).
	if !throttle {
		return
	}
	release := func(to int, k int) { c.Send(to, 0, ctrlTag(block, (1<<12)+k)) }
	await := func(from int, k int) {
		c.Recv(from, 0, ctrlTag(block, (1<<12)+k))
		r.SetThrottle(power.T0)
	}
	switch {
	case me == root:
		for _, rk := range rl.racks {
			if dst := rl.rackLeader(rk); dst != me {
				release(dst, dst)
			}
		}
		// Root also releases its own node/rack subordinates below.
		fallthrough
	case me == rackLeader:
		if me != root {
			await(root, me)
		}
		for _, idx := range rl.nodeIdxsOf[myRack] {
			if dst := lay.all[idx][0]; dst != me {
				release(dst, dst)
			}
		}
		fallthrough
	case me == nodeLeader:
		if me != rackLeader {
			await(rackLeader, me)
		}
		for _, lr := range lay.all[myNodeIdx] {
			if lr != me {
				release(lr, lr)
			}
		}
	default:
		await(nodeLeader, me)
	}
}
