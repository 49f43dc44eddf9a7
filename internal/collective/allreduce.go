package collective

import (
	"pacc/internal/mpi"
)

// Allreduce combines bytes across all ranks and leaves the result
// everywhere. Power-of-two communicators use recursive doubling; others
// compose Reduce + Bcast. With Proposed the composition inherits the
// multi-core aware throttle schedules of both halves; recursive doubling
// has every rank on the network, so Proposed reduces to per-call DVFS
// there (the §V-B observation about fully-participating algorithms).
func Allreduce(c *mpi.Comm, bytes int64, opt Options) error {
	if err := checkBytes("allreduce", bytes); err != nil {
		return err
	}
	opt.Power = opt.effectivePower(bytes)
	timeCollective(c, opt, "allreduce", bytes, func() {
		n := c.Size()
		if n == 1 {
			return
		}
		if isPow2(n) && opt.Power != Proposed {
			run := func() { recursiveDoublingAllreduce(c, bytes) }
			if opt.Power == FreqScaling {
				withFreqScaling(c, run)
				return
			}
			run()
			return
		}
		// Composition path (and the Proposed scheme).
		inner := opt
		inner.Trace = nil // phases accounted by the inner calls' names
		Reduce(c, 0, bytes, inner)
		Bcast(c, 0, bytes, inner)
	})
	return nil
}

// AllreduceRD always runs recursive doubling (power-of-two only; falls
// back to the composition otherwise). Plan-backed on the power-of-two
// path.
func AllreduceRD(c *mpi.Comm, bytes int64, opt Options) error {
	if err := checkBytes("allreduce_rd", bytes); err != nil {
		return err
	}
	opt.Power = opt.effectivePower(bytes)
	var err error
	timeCollective(c, opt, "allreduce_rd", bytes, func() {
		n := c.Size()
		if !isPow2(n) {
			inner := opt
			inner.Trace = nil
			Reduce(c, 0, bytes, inner)
			Bcast(c, 0, bytes, inner)
			return
		}
		if opt.refImperative {
			run := func() { recursiveDoublingAllreduce(c, bytes) }
			if opt.Power == FreqScaling || opt.Power == Proposed {
				withFreqScaling(c, run)
				return
			}
			run()
			return
		}
		err = runPlanned(c, "allreduce", "allreduce_rd", planSpec(bytes, nil, opt), opt)
	})
	return err
}

func recursiveDoublingAllreduce(c *mpi.Comm, bytes int64) {
	n, me := c.Size(), c.Rank()
	block := c.TagBlock()
	for mask := 1; mask < n; mask <<= 1 {
		peer := me ^ mask
		tag := c.PairTag(block, me, peer) + (1<<17)*logOf(mask)
		c.Exchange(peer, bytes, tag, peer, bytes, tag)
		reduceOp(c, bytes)
	}
}
