//go:build !go1.23

package simtime

var _ = pacc_requires_go1_23_for_iter_Pull // processes run as iter.Pull coroutines
