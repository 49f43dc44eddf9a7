package collective

import (
	"pacc/internal/mpi"
	"pacc/internal/topology"
)

// layout is the node/socket structure of a communicator, precomputed
// once per collective call (imperative path) or plan build (builders).
type layout struct {
	nodes     []int       // node ids in first-appearance order
	idxOfNode map[int]int // node id -> index into nodes
	all       [][]int     // per node index: comm ranks on that node, ascending
	a, b      [][]int     // per node index: comm ranks on socket A / B, ascending
}

// newLayout groups comm ranks 0..p-1 by the node and socket the two
// accessors report.
func newLayout(p int, nodeOf func(cr int) int, onSocketA func(cr int) bool) *layout {
	l := &layout{idxOfNode: map[int]int{}}
	for cr := 0; cr < p; cr++ {
		n := nodeOf(cr)
		idx, ok := l.idxOfNode[n]
		if !ok {
			idx = len(l.nodes)
			l.idxOfNode[n] = idx
			l.nodes = append(l.nodes, n)
			l.all = append(l.all, nil)
			l.a = append(l.a, nil)
			l.b = append(l.b, nil)
		}
		l.all[idx] = append(l.all[idx], cr)
		if onSocketA(cr) {
			l.a[idx] = append(l.a[idx], cr)
		} else {
			l.b[idx] = append(l.b[idx], cr)
		}
	}
	return l
}

// layoutOf reads a live communicator's layout straight from its
// placement.
func layoutOf(c *mpi.Comm) *layout {
	return newLayout(c.Size(), c.NodeOf, func(cr int) bool { return c.SocketOf(cr) == topology.SocketA })
}

// numNodes returns the number of distinct nodes in the communicator.
func (l *layout) numNodes() int { return len(l.nodes) }

// indexIn returns the position of cr within group, or -1.
func indexIn(group []int, cr int) int {
	for i, g := range group {
		if g == cr {
			return i
		}
	}
	return -1
}

// localCopy charges the cost of one full-speed memcpy of the given size,
// stretched by the calling core's streaming-copy slowdown (used for
// self-blocks, buffer rotations, and shared-region traffic).
func localCopy(c *mpi.Comm, bytes int64) {
	if bytes <= 0 {
		return
	}
	c.Owner().MemCopy(bytes)
}

// tournamentRounds returns the number of rounds needed for every pair of
// n participants to meet exactly once: n-1 when n is even, n (with one
// bye per round) when n is odd.
func tournamentRounds(n int) int {
	if n < 2 {
		return 0
	}
	if n%2 == 0 {
		return n - 1
	}
	return n
}

// tournamentPeer returns the participant paired with i in the given round
// (1..tournamentRounds(n)) of a round-robin tournament, or -1 when i sits
// out (odd n). The pairing is mutual — tournamentPeer(n, r, j) == i
// whenever tournamentPeer(n, r, i) == j — which is what lets blocking
// pairwise exchanges proceed without deadlock. Power-of-two n uses XOR
// pairing (the hypercube schedule); other sizes the circle method.
func tournamentPeer(n, round, i int) int {
	if n < 2 {
		return -1
	}
	if isPow2(n) {
		return i ^ round
	}
	if n%2 == 1 {
		// Circle method over n participants, one bye per round: pair
		// i with j when i+j ≡ round (mod n), i == j meaning a bye.
		j := (round - i%n + 2*n) % n
		if j == i {
			return -1
		}
		return j
	}
	// Even non-power-of-two: fix participant n-1, rotate the rest.
	m := n - 1
	if i == m {
		// Partner is the x with 2x ≡ round (mod m).
		for x := 0; x < m; x++ {
			if (2*x)%m == round%m {
				return x
			}
		}
		return -1
	}
	if (2*i)%m == round%m {
		return m
	}
	return (round - i%m + 2*m) % m
}
