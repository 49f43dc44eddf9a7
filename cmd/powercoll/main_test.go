package main

import (
	"testing"

	"pacc"
	"pacc/internal/collective"
)

// TestParseObsSpecAcceptsCatalogue: -obs runs exactly the collective
// catalogue's ops, with the shared size and power-mode syntax.
func TestParseObsSpecAcceptsCatalogue(t *testing.T) {
	for _, name := range collective.OpNames() {
		call, bytes, mode, err := parseObsSpec(name + ":64K:dvfs")
		if err != nil || call == nil || bytes != 64<<10 || mode != pacc.FreqScaling {
			t.Errorf("parseObsSpec(%s:64K:dvfs) = %v, %d, %v, %v", name, call != nil, bytes, mode, err)
		}
	}
	for _, bad := range []string{
		"barrier:1K:proposed", "bogus:1K:proposed", "alltoall_pairwise:1K:proposed",
		"alltoall:1K", "alltoall:1G:proposed", "alltoall:17592186044417M:proposed",
		"alltoall:1K:turbo",
	} {
		if _, _, _, err := parseObsSpec(bad); err == nil {
			t.Errorf("parseObsSpec(%q) accepted", bad)
		}
	}
	if _, _, mode, err := parseObsSpec("alltoall:1K:"); err != nil || mode != pacc.NoPower {
		t.Errorf(`parseObsSpec("alltoall:1K:") = %v, %v; want no-power`, mode, err)
	}
}
