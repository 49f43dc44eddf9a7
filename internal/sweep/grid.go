package sweep

import (
	"fmt"
	"strconv"
	"strings"

	"pacc/internal/stats"
)

// Grid describes a parameter sweep: the cartesian product of ops ×
// sizes × modes × seeds at one job shape. Overlapping grids (shared
// cells) are the dedupe workload: identical cells collapse onto one
// key.
type Grid struct {
	Tenant string   `json:"tenant,omitempty"`
	Ops    []string `json:"ops"`
	Sizes  []int64  `json:"sizes"`
	Modes  []string `json:"modes,omitempty"` // default ["no-power"]
	Seeds  []uint64 `json:"seeds,omitempty"` // default [0]
	Procs  int      `json:"procs"`
	PPN    int      `json:"ppn"`
	Iters  int      `json:"iters,omitempty"`
	Plan   string   `json:"plan,omitempty"`
	Fault  string   `json:"fault,omitempty"`
}

// Expand enumerates the grid's requests in deterministic order
// (op-major, then size, mode, seed).
func (g Grid) Expand() []Request {
	modes := g.Modes
	if len(modes) == 0 {
		modes = []string{"no-power"}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{0}
	}
	var out []Request
	for _, op := range g.Ops {
		for _, size := range g.Sizes {
			for _, mode := range modes {
				for _, seed := range seeds {
					out = append(out, Request{
						Tenant: g.Tenant, Op: op, Procs: g.Procs, PPN: g.PPN,
						Bytes: size, Mode: mode, Iters: g.Iters,
						Plan: g.Plan, Fault: g.Fault, Seed: seed,
					})
				}
			}
		}
	}
	return out
}

// Cells returns the number of requests Expand would produce, counted
// without expanding. It reports false, without overflowing, once the
// count exceeds limit — so an untrusted grid can be bounded before it
// is expanded.
func (g Grid) Cells(limit int) (int, bool) {
	n := 1
	for _, k := range []int{len(g.Ops), len(g.Sizes), max(len(g.Modes), 1), max(len(g.Seeds), 1)} {
		if k != 0 && n > limit/k {
			return 0, false
		}
		n *= k
	}
	return n, true
}

// ParseSizes parses a comma-separated size list in stats.ParseBytes
// syntax, e.g. "1K,64K,1M"; empty entries are skipped.
func ParseSizes(src string) ([]int64, error) {
	var out []int64
	for _, tok := range strings.Split(src, ",") {
		if strings.TrimSpace(tok) == "" {
			continue
		}
		v, err := stats.ParseBytes(tok)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sweep: empty size list %q", src)
	}
	return out, nil
}

// ParseSeedRange parses "lo:hi" (half-open) or a comma-separated seed
// list, e.g. "0:8" → 0..7, "3,17,91" → those three.
func ParseSeedRange(src string) ([]uint64, error) {
	src = strings.TrimSpace(src)
	if src == "" {
		return nil, nil
	}
	if lo, hi, ok := strings.Cut(src, ":"); ok {
		l, err1 := strconv.ParseUint(strings.TrimSpace(lo), 10, 64)
		h, err2 := strconv.ParseUint(strings.TrimSpace(hi), 10, 64)
		if err1 != nil || err2 != nil || h < l {
			return nil, fmt.Errorf("sweep: bad seed range %q (want lo:hi)", src)
		}
		if h-l > 1<<20 {
			return nil, fmt.Errorf("sweep: seed range %q too large", src)
		}
		out := make([]uint64, 0, h-l)
		for v := l; v < h; v++ {
			out = append(out, v)
		}
		return out, nil
	}
	var out []uint64
	for _, tok := range strings.Split(src, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(tok), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("sweep: bad seed %q", tok)
		}
		out = append(out, v)
	}
	return out, nil
}
