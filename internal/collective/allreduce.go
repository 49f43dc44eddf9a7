package collective

import (
	"errors"

	"pacc/internal/mpi"
)

// Allreduce combines bytes across all ranks and leaves the result
// everywhere. Power-of-two communicators use recursive doubling; others
// compose Reduce + Bcast. With Proposed the composition inherits the
// multi-core aware throttle schedules of both halves; recursive doubling
// has every rank on the network, so Proposed reduces to per-call DVFS
// there (the §V-B observation about fully-participating algorithms).
func Allreduce(c *mpi.Comm, bytes int64, opt Options) error {
	return runFixedSize(c, "allreduce", bytes, opt, func(opt Options) error {
		switch n := c.Size(); {
		case n == 1:
			return nil
		case isPow2(n) && opt.Power != Proposed:
			runScheme(c, opt, func(bool) { recursiveDoublingAllreduce(c, bytes) })
			return nil
		default:
			return reduceBcast(c, bytes, opt)
		}
	})
}

// AllreduceRD always runs recursive doubling (power-of-two only; falls
// back to the composition otherwise). Plan-backed on the power-of-two
// path.
func AllreduceRD(c *mpi.Comm, bytes int64, opt Options) error {
	return runFixedSize(c, "allreduce_rd", bytes, opt, func(opt Options) error {
		if !isPow2(c.Size()) {
			return reduceBcast(c, bytes, opt)
		}
		return runPlanned(c, "allreduce", "allreduce_rd", planSpec(bytes, nil, opt), opt,
			func(bool) { recursiveDoublingAllreduce(c, bytes) })
	})
}

// reduceBcast composes Reduce and Bcast rooted at rank 0, each under the
// call's resolved options; their phases are accounted under the inner
// calls' names, not the caller's trace.
func reduceBcast(c *mpi.Comm, bytes int64, opt Options) error {
	opt.Trace = nil
	return errors.Join(Reduce(c, 0, bytes, opt), Bcast(c, 0, bytes, opt))
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
