package collective

import (
	"fmt"
	"sort"

	"pacc/internal/mpi"
)

// OpFunc is a collective at the shape a sweep front end drives it:
// every rank calls it with the same size and options.
type OpFunc func(c *mpi.Comm, bytes int64, opt Options) error

// catalogue maps the op names the front ends (cmd/osu, cmd/powercoll
// -obs, the sweep service) accept onto entry points. Rooted ops run from
// rank 0; the summing allreduces contribute global id + 1. verify marks
// the entries that honour Options.Verify.
var catalogue = map[string]struct {
	run    OpFunc
	verify bool
}{
	"alltoall":       {run: AlltoallPairwise},
	"bruck":          {run: AlltoallBruck},
	"allgather":      {run: Allgather},
	"allgather_ring": {run: AllgatherRing},
	"allgather_rd":   {run: AllgatherRD},
	"allreduce":      {run: Allreduce},
	"allreduce_rd":   {run: AllreduceRD, verify: true},
	"allreduce_topo": {run: allreduceTopoSum, verify: true},
	// allreduce_ft is the ULFM-style fault-tolerant allreduce: under a
	// crash fault spec the survivors revoke, agree, shrink and finish on
	// the remaining ranks.
	"allreduce_ft":   {run: allreduceFTSum, verify: true},
	"bcast":          {run: rootZero(Bcast)},
	"bcast_binomial": {run: rootZero(BcastBinomial)},
	"reduce":         {run: rootZero(Reduce)},
	"gather":         {run: rootZero(Gather)},
	"scatter":        {run: rootZero(Scatter)},
}

// Op returns the entry point the op name runs.
func Op(name string) (OpFunc, bool) {
	e, ok := catalogue[name]
	return e.run, ok
}

// OpNames lists the catalogue's op names, sorted.
func OpNames() []string { return catalogueNames(false) }

// VerifyOpNames lists, sorted, the ops that honour Options.Verify: the
// plan-backed allreduce_rd appends checksum verification steps, and the
// summing allreduces carry an ABFT checksum lane and compare the sum
// they return against the group's.
func VerifyOpNames() []string { return catalogueNames(true) }

func catalogueNames(verifyOnly bool) []string {
	var names []string
	for name, e := range catalogue {
		if e.verify || !verifyOnly {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

func rootZero(f func(c *mpi.Comm, root int, bytes int64, opt Options) error) OpFunc {
	return func(c *mpi.Comm, bytes int64, opt Options) error { return f(c, 0, bytes, opt) }
}

func allreduceTopoSum(c *mpi.Comm, bytes int64, opt Options) error {
	got, err := AllreduceSum(c, bytes, float64(c.Owner().ID()+1), opt)
	if err != nil || !opt.Verify {
		return err
	}
	if want := groupSum(c); got != want {
		return fmt.Errorf("verify: allreduce_topo sum %g, want %g", got, want)
	}
	return nil
}

func allreduceFTSum(c *mpi.Comm, bytes int64, opt Options) error {
	got, fc, err := AllreduceSumFT(c, bytes, float64(c.Owner().ID()+1), opt)
	if err != nil || !opt.Verify {
		return err
	}
	if want := groupSum(fc); got != want {
		return fmt.Errorf("verify: allreduce_ft sum %g, want %g over the final group", got, want)
	}
	return nil
}

// groupSum is the summing allreduces' expected result over c's
// membership: every member contributes its global rank id + 1.
func groupSum(c *mpi.Comm) float64 {
	want := 0.0
	for i := 0; i < c.Size(); i++ {
		want += float64(c.Global(i) + 1)
	}
	return want
}
