package mpi

import (
	"fmt"
	"sort"

	"pacc/internal/topology"
)

// Comm is a communicator: an ordered group of global ranks plus the
// calling rank's position in it. Like an MPI communicator handle, a Comm
// is local to one rank; the same group is represented by one Comm per
// member.
type Comm struct {
	r     *Rank
	group []int // global rank ids; position = communicator rank
	me    int   // index of r.id in group
	// id distinguishes tag spaces of different communicators. It is a
	// rank-local creation counter: because communicators must be
	// created congruently on all members (SPMD, as in MPI), every
	// member assigns the same id to the same logical communicator.
	id int
	// opSeq numbers collective operations on this communicator, again
	// kept consistent by congruent calls.
	opSeq int
	// agreeSeq numbers AgreeFailures calls (see ulfm.go), congruent like
	// opSeq.
	agreeSeq int
	// shapeKey memoizes ShapeKey.
	shapeKey string
	// splitShm/splitLead memoize SplitByNode. The node grouping of a
	// communicator never changes, and every member memoizes on its first
	// call (SPMD congruence), so the per-collective re-split cost — once
	// the dominant allocation in iterated topo-aware collectives — is
	// paid exactly once per communicator.
	splitShm  *Comm
	splitLead *Comm
	splitDone bool
}

// CommWorld returns the communicator containing every rank of the job.
// All ranks share one immutable identity-group slice: a per-rank copy
// would be O(P) memory per rank — tens of gigabytes at 64k ranks — for
// a slice no code path ever mutates after creation.
func CommWorld(r *Rank) *Comm {
	w := r.world
	if w.worldGroup == nil {
		w.worldGroup = make([]int, w.cfg.NProcs)
		for i := range w.worldGroup {
			w.worldGroup[i] = i
		}
	}
	id := r.commSeq
	r.commSeq++
	return &Comm{r: r, group: w.worldGroup, me: r.id, id: id}
}

// ShapeKey identifies the communicator's logical group across ranks in
// O(1), for world-level memo keys (the collective package's plan
// cache). Two comm handles held by different ranks map to the same key
// exactly when they represent the same logical communicator:
//
//   - congruent creation (the SPMD contract this package already leans
//     on for tag spaces) gives the same logical communicator the same
//     id on every member;
//   - distinct communicators sharing an id exist only via SplitColor's
//     per-color partition, whose member sets are disjoint — so their
//     first members (and sizes) differ.
//
// The id alone is therefore ambiguous only across disjoint groups, and
// group[0] breaks that tie; size and the last member are included as
// defense in depth.
func (c *Comm) ShapeKey() string {
	if c.shapeKey == "" {
		c.shapeKey = fmt.Sprintf("%d/%d:%d-%d",
			c.id, len(c.group), c.group[0], c.group[len(c.group)-1])
	}
	return c.shapeKey
}

// Rank returns the caller's rank within the communicator.
func (c *Comm) Rank() int { return c.me }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.group) }

// Global translates a communicator rank to the global rank id.
func (c *Comm) Global(commRank int) int { return c.group[commRank] }

// Owner returns the Rank object that holds this communicator handle.
func (c *Comm) Owner() *Rank { return c.r }

// World returns the job.
func (c *Comm) World() *World { return c.r.world }

// Sub creates a communicator from a subset of this communicator's ranks
// (given as communicator ranks, in the desired order). Returns nil if the
// caller is not in the subset. Creation is structural: like communicator
// caching in MVAPICH2, the cost is paid once at job setup, not per
// collective.
func (c *Comm) Sub(commRanks []int) *Comm {
	// The id is consumed whether or not the caller joins, so members
	// and non-members stay congruent.
	id := c.r.commSeq
	c.r.commSeq++
	group := make([]int, len(commRanks))
	me := -1
	for i, cr := range commRanks {
		if cr < 0 || cr >= len(c.group) {
			// A malformed subset is a programming error in the caller's
			// schedule, but it must not crash the host process: surface
			// it through the engine's failure report (the deadlock/
			// protocol-error path) and drop the caller out, as if it had
			// passed MPI_UNDEFINED.
			c.r.world.eng.Fail(fmt.Errorf(
				"mpi: Sub rank %d outside communicator of size %d", cr, len(c.group)))
			return nil
		}
		group[i] = c.group[cr]
		if group[i] == c.r.id {
			me = i
		}
	}
	if me == -1 {
		return nil
	}
	return &Comm{r: c.r, group: group, me: me, id: id}
}

// SplitColor partitions the communicator like MPI_Comm_split: ranks with
// the same color form a new communicator, ordered by (key, rank). A
// negative color (MPI_UNDEFINED) yields nil. All members must call
// congruently with their own (color, key); the full color/key table must
// be derivable by every rank, so it is passed as functions of the
// communicator rank. The resulting per-color communicators share one tag
// space id, which is safe because their member sets are disjoint.
func (c *Comm) SplitColor(colorOf, keyOf func(commRank int) int) *Comm {
	myColor := colorOf(c.me)
	type member struct{ key, rank int }
	var members []member
	for cr := 0; cr < len(c.group); cr++ {
		if colorOf(cr) == myColor {
			members = append(members, member{keyOf(cr), cr})
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})
	ranks := make([]int, len(members))
	for i, m := range members {
		ranks[i] = m.rank
	}
	if myColor < 0 {
		// Still consume the id for congruence, then drop out.
		c.Sub(nil)
		return nil
	}
	return c.Sub(ranks)
}

// TagBlock reserves a fresh block of 2^20 tags for one collective
// operation on this communicator. Successive collectives get disjoint
// blocks, and different communicators get disjoint spaces, so a straggler
// message from a previous operation can never match a later receive.
func (c *Comm) TagBlock() int {
	c.opSeq++
	return c.id*(1<<44) + c.opSeq*(1<<20)
}

// PairTag returns a canonical tag for the unordered pair (a, b) of
// communicator ranks inside a tag block: both endpoints derive the same
// tag regardless of their position in the communication schedule.
func (c *Comm) PairTag(block, a, b int) int {
	if a > b {
		a, b = b, a
	}
	return block + a*len(c.group) + b
}

// Isend starts a nonblocking send to a communicator rank. On a revoked
// communicator the operation fails at initiation (check Err); otherwise
// the request's wait is failure-aware toward both the peer and this
// communicator's revocation.
func (c *Comm) Isend(dst int, bytes int64, tag int) *Request {
	if c.Revoked() {
		return errorRequest(c.r, &CommRevokedError{Comm: c.id, Op: "Isend"})
	}
	q := c.r.Isend(c.group[dst], bytes, tag)
	q.comm = c
	return q
}

// Irecv posts a nonblocking receive from a communicator rank (see Isend
// for revocation and failure-awareness).
func (c *Comm) Irecv(src int, bytes int64, tag int) *Request {
	if c.Revoked() {
		return errorRequest(c.r, &CommRevokedError{Comm: c.id, Op: "Irecv"})
	}
	q := c.r.Irecv(c.group[src], bytes, tag)
	q.comm = c
	return q
}

// Send is a blocking send to a communicator rank. The error is nil for a
// completed send; a dead peer or revoked communicator surfaces as a
// failure error (IsFailure).
func (c *Comm) Send(dst int, bytes int64, tag int) error {
	q := c.Isend(dst, bytes, tag)
	q.Wait()
	return c.r.world.reapReq(q)
}

// Recv is a blocking receive from a communicator rank (errors as in Send).
func (c *Comm) Recv(src int, bytes int64, tag int) error {
	q := c.Irecv(src, bytes, tag)
	q.Wait()
	return c.r.world.reapReq(q)
}

// SendRecv exchanges with communicator ranks dst and src (errors as in
// Send; the send's error wins when both fail).
func (c *Comm) SendRecv(dst int, sendBytes int64, src int, recvBytes int64, tag int) error {
	rq := c.Irecv(src, recvBytes, tag)
	sq := c.Isend(dst, sendBytes, tag)
	sq.Wait()
	rq.Wait()
	serr := c.r.world.reapReq(sq)
	rerr := c.r.world.reapReq(rq)
	if serr != nil {
		return serr
	}
	return rerr
}

// Exchange runs the canonical progression of one schedule step that both
// sends and receives: post the receive, start the send, then complete
// send before receive. Every collective exchange — imperative or executed
// from a communication plan — goes through this one sequence, so the two
// paths progress (and therefore time and trace) identically. Errors as in
// SendRecv.
func (c *Comm) Exchange(sendTo int, sendBytes int64, sendTag int, recvFrom int, recvBytes int64, recvTag int) error {
	rq := c.Irecv(recvFrom, recvBytes, recvTag)
	sq := c.Isend(sendTo, sendBytes, sendTag)
	WaitAll(sq, rq)
	serr := c.r.world.reapReq(sq)
	rerr := c.r.world.reapReq(rq)
	if serr != nil {
		return serr
	}
	return rerr
}

// NodeOf returns the node hosting a communicator rank.
func (c *Comm) NodeOf(commRank int) int {
	return c.r.world.place.NodeOf(c.group[commRank])
}

// SocketOf returns the socket of a communicator rank's core.
func (c *Comm) SocketOf(commRank int) topology.SocketID {
	return c.r.world.place.SocketOf(c.group[commRank])
}

// SameNode reports whether two communicator ranks share a node.
func (c *Comm) SameNode(a, b int) bool { return c.NodeOf(a) == c.NodeOf(b) }

// nodesInOrder returns the distinct node ids of the communicator in first-
// appearance order.
func (c *Comm) nodesInOrder() []int {
	seen := map[int]bool{}
	var nodes []int
	for cr := range c.group {
		n := c.NodeOf(cr)
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	return nodes
}

// SplitByNode builds the two sub-communicators of MVAPICH2's multi-core
// aware collectives (§II-D): shmComm groups the caller with all ranks on
// its node (ordered by communicator rank, so the leader — the smallest —
// is shm rank 0), and leaderComm groups the per-node leaders (nil for
// non-leader callers).
func (c *Comm) SplitByNode() (shmComm, leaderComm *Comm) {
	if c.splitDone {
		return c.splitShm, c.splitLead
	}
	perNode := map[int][]int{}
	for cr := range c.group {
		n := c.NodeOf(cr)
		perNode[n] = append(perNode[n], cr)
	}
	myNode := c.NodeOf(c.me)
	mine := append([]int(nil), perNode[myNode]...)
	sort.Ints(mine)
	shmComm = c.Sub(mine)

	var leaders []int
	for _, n := range c.nodesInOrder() {
		rs := append([]int(nil), perNode[n]...)
		sort.Ints(rs)
		leaders = append(leaders, rs[0])
	}
	sort.Ints(leaders)
	leaderComm = c.Sub(leaders) // nil unless caller is a leader
	c.splitShm, c.splitLead, c.splitDone = shmComm, leaderComm, true
	return shmComm, leaderComm
}

// SocketGroups partitions the caller's node-local communicator ranks by
// socket: groupA holds the ranks on socket A, groupB those on socket B
// (communicator ranks, ascending). This is the process grouping of the
// paper's power-aware Alltoall (§V-A, Figure 3).
func (c *Comm) SocketGroups() (groupA, groupB []int) {
	myNode := c.NodeOf(c.me)
	for cr := range c.group {
		if c.NodeOf(cr) != myNode {
			continue
		}
		if c.SocketOf(cr) == topology.SocketA {
			groupA = append(groupA, cr)
		} else {
			groupB = append(groupB, cr)
		}
	}
	sort.Ints(groupA)
	sort.Ints(groupB)
	return groupA, groupB
}
