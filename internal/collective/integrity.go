package collective

import (
	"errors"
	"fmt"

	"pacc/internal/fault"
	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/plan"
	"pacc/internal/simtime"
)

// ABFT-checked collectives: the value-carrying allreduce variants gain a
// checksum shadow lane that rides the same simulated messages (the
// multi-lane wire board), is reduced by the same arithmetic in the same
// order, and is compared against the value lane when the collective
// completes. The transport's ICRC already guarantees that in-flight
// corruption never reaches the application (see internal/mpi/integrity.go);
// the checked collectives close the remaining gap — corruption of the
// reduction accumulators in memory (fault.MemBurst) — by turning a
// silently wrong answer into a typed VerificationError the resilient
// runner can retry.

// VerificationError reports a failed end-to-end ABFT verification: the
// value lane and the checksum lane of a checked collective diverged, which
// means a memory-corruption event hit one of the reduction buffers after
// the transport delivered them intact.
type VerificationError struct {
	// Op names the collective whose verification failed.
	Op string
	// Sum and Check are the diverged value and checksum lanes (zero when
	// Peer is set).
	Sum, Check float64
	// Peer marks an error learned through the round agreement rather than
	// observed locally: another member detected a mismatch and voted to
	// retry the round, while this rank's own lanes agreed.
	Peer bool
}

func (e *VerificationError) Error() string {
	if e.Peer {
		return fmt.Sprintf("collective %s: abft verification failed on a peer rank (agreement vote)", e.Op)
	}
	return fmt.Sprintf("collective %s: abft checksum mismatch (sum %g, check %g)", e.Op, e.Sum, e.Check)
}

// IsIntegrity reports whether err stems from detected data corruption at
// any layer: a transport message undeliverable within its retry budget
// (mpi.IntegrityError), a failed OpVerify step in an executed plan
// (plan.IntegrityError), or a checked collective's lane mismatch
// (VerificationError). RunResilient treats all of them like a failed
// round: revoke, agree, restore power, retry.
func IsIntegrity(err error) bool {
	var ve *VerificationError
	var pe *plan.IntegrityError
	return errors.As(err, &ve) || errors.As(err, &pe) || mpi.IsIntegrity(err)
}

// redVal is the payload of one reduction message: the running sum plus,
// in checked mode, the ABFT checksum shadow lane. One-lane (unchecked)
// values move through exactly the calls the historical float64 code made,
// so the unchecked schedules stay bit-identical.
type redVal struct {
	v, chk  float64
	checked bool
}

func (a redVal) lanes() []float64 {
	if a.checked {
		return []float64{a.v, a.chk}
	}
	return []float64{a.v}
}

// add folds x into a on every lane.
func (a redVal) add(x redVal) redVal {
	a.v += x.v
	a.chk += x.chk
	return a
}

func laneCount(checked bool) int {
	if checked {
		return 2
	}
	return 1
}

func redOf(ls []float64, checked bool) redVal {
	if checked {
		return redVal{v: ls[0], chk: ls[1], checked: true}
	}
	return redVal{v: ls[0]}
}

// sendRed ships a reduction value to communicator rank dst.
func sendRed(cc *mpi.Comm, dst int, bytes int64, tag int, a redVal) error {
	return cc.SendValues(dst, bytes, tag, a.lanes()...)
}

// recvRed receives a reduction value from communicator rank src.
func recvRed(cc *mpi.Comm, src int, bytes int64, tag int, checked bool) (redVal, error) {
	ls, err := cc.RecvValues(src, bytes, tag, laneCount(checked))
	if err != nil {
		return redVal{checked: checked}, err
	}
	return redOf(ls, checked), nil
}

// maybeCorrupt passes one freshly written float64 through the injector's
// memory-corruption model: during an active burst window covering this
// rank, the value comes back with one mantissa bit flipped. A nil or
// burst-free spec is a strict no-op, preserving bit-identical behavior.
func maybeCorrupt(r *mpi.Rank, v float64) float64 {
	w := r.World()
	h, hit := w.Injector().MemCorrupt(r.ID(), r.Now().Sub(simtime.Time(0)))
	if !hit {
		return v
	}
	if b := w.Obs(); b != nil {
		b.Add(obs.CtrFaultMemCorruptions, 1)
		b.Instant(r.ObsTrack(), "mem corrupt", nil)
	}
	return fault.CorruptFloat(v, h)
}

// corruptRed exposes a reduction value's buffer to memory corruption.
// Only the value lane is at risk: the checksum lane models a small,
// register-resident shadow accumulator, which is what makes the final
// lane comparison a detector instead of a coin flip.
func corruptRed(r *mpi.Rank, a redVal) redVal {
	a.v = maybeCorrupt(r, a.v)
	return a
}

// verifyCharge charges the streaming cost of one ABFT checksum fold over
// the payload. The scalar lanes stand in for real vectors; this is the
// time cost the ≤3% overhead budget sees.
func verifyCharge(r *mpi.Rank, bytes int64) {
	if bytes <= 0 {
		return
	}
	r.StreamCompute(simtime.DurationOf(float64(bytes) / plan.DefaultVerifyBytesPerSec))
}

// verifyRed is the end-of-collective verification: fold the output
// checksum and compare lanes. Exact equality is correct here — both lanes
// accumulate the same values in the same order at every rank, so they are
// bitwise equal unless a corruption event intervened.
func verifyRed(c *mpi.Comm, op string, bytes int64, a redVal) error {
	r := c.Owner()
	verifyCharge(r, bytes)
	if a.v == a.chk {
		return nil
	}
	if b := r.World().Obs(); b != nil {
		b.Add(obs.CtrIntegrityVerifyFails, 1)
		b.Instant(r.ObsTrack(), "abft verify failed", map[string]any{"op": op})
	}
	return &VerificationError{Op: op, Sum: a.v, Check: a.chk}
}

// runVerified runs one value-carrying schedule over a. When a carries
// the checksum lane it first charges the input checksum fold — before
// anything can corrupt the buffer, so the shadow lane is trustworthy
// from there on — and after a clean run compares the lanes.
func runVerified(c *mpi.Comm, op string, bytes int64, a redVal, run func(redVal) (redVal, error)) (redVal, error) {
	if !a.checked {
		return run(a)
	}
	verifyCharge(c.Owner(), bytes)
	out, err := run(a)
	if err != nil {
		return out, err
	}
	return out, verifyRed(c, op, bytes, out)
}
