package collective

import (
	"pacc/internal/mpi"
)

// Gather collects a distinct block of bytes from every rank onto root
// using a binomial tree: subtree roots aggregate their subtree's blocks
// before forwarding, so message sizes grow toward the root.
func Gather(c *mpi.Comm, root int, bytes int64, opt Options) error {
	if err := checkRoot("gather", root, c.Size()); err != nil {
		return err
	}
	return runFixedSize(c, "gather", bytes, opt, func(opt Options) error {
		runScheme(c, opt, func(bool) { binomialGather(c, root, bytes, c.TagBlock()) })
		return nil
	})
}

// Scatter distributes a distinct block of bytes from root to every rank
// with the binomial range-splitting tree (the same schedule as the
// scatter half of the large-message broadcast).
func Scatter(c *mpi.Comm, root int, bytes int64, opt Options) error {
	if err := checkRoot("scatter", root, c.Size()); err != nil {
		return err
	}
	return runFixedSize(c, "scatter", bytes, opt, func(opt Options) error {
		runScheme(c, opt, func(bool) { binomialScatter(c, root, bytes, c.TagBlock()) })
		return nil
	})
}

// binomialGather mirrors binomialScatter: the owner of the upper half of
// a vrank range ships its aggregated blocks to the owner of the lower
// half, bottom-up.
func binomialGather(c *mpi.Comm, root int, chunk int64, block int) {
	n, me := c.Size(), c.Rank()
	if n == 1 {
		return
	}
	vr := (me - root + n) % n
	// Walk the same range splits as scatter, recording them, then run
	// the transfers in reverse (leaves first).
	type split struct{ lo, upper, hi int }
	var splits []split
	lo, hi := 0, n
	for hi-lo > 1 {
		half := (hi - lo) / 2
		upper := hi - half
		splits = append(splits, split{lo, upper, hi})
		if vr < upper {
			hi = upper
		} else {
			lo = upper
		}
	}
	for i := len(splits) - 1; i >= 0; i-- {
		s := splits[i]
		size := int64(s.hi-s.upper) * chunk
		if vr == s.upper {
			dst := (s.lo + root) % n
			c.Send(dst, size, c.PairTag(block, me, dst))
		}
		if vr == s.lo {
			src := (s.upper + root) % n
			c.Recv(src, size, c.PairTag(block, src, me))
		}
	}
}
