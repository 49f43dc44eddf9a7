package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// cpuBuckets are the cpu.* shares, one per package bucket. Every flat
// sample lands in exactly one, so they sum to 1.
var cpuBuckets = []string{
	"runtime", "gc", "syscall",
	"simtime", "network", "mpi", "plan", "collective", "power",
	"obs", "analyze", "sweep", "other",
}

// paccBuckets are the repository packages with a bucket of their own;
// the rest of the repository lands in "other".
var paccBuckets = map[string]bool{
	"simtime": true, "network": true, "mpi": true, "plan": true,
	"collective": true, "power": true, "obs": true, "analyze": true, "sweep": true,
}

// gcPrefixes name the Go runtime's collector: marking, sweeping,
// scavenging and write barriers.
var gcPrefixes = []string{
	"runtime.gc", "runtime.(*gc", "runtime.scan", "runtime.mark", "runtime.grey",
	"runtime.sweep", "runtime.(*sweep", "runtime.bgsweep", "runtime.(*mspan).sweep",
	"runtime.bgscavenge", "runtime.(*scavenger", "runtime.(*pageAlloc).scavenge",
	"runtime.wbBuf", "runtime.(*wbBuf", "runtime.bulkBarrier", "runtime.findObject",
	"runtime.heapBits", "runtime.typePointers", "runtime.(*mspan).typePointers",
	"runtime.spanOf", "runtime.markBits", "runtime.(*markBits",
}

// bucketOf maps a pprof function name to its cpu.* bucket.
func bucketOf(fn string) string {
	fn = strings.TrimSuffix(fn, " (inline)")
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return "gc"
		}
	}
	switch {
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/syscall/"),
		strings.HasPrefix(fn, "internal/runtime/syscall."):
		return "syscall"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "internal/runtime/"),
		!strings.Contains(fn, "."):
		// Unqualified names are the runtime's assembly stubs.
		return "runtime"
	}
	if rest, ok := strings.CutPrefix(fn, "pacc/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		if paccBuckets[pkg] {
			return pkg
		}
	}
	return "other"
}

// bucketTop reads `go tool pprof -top -unit=ms` output and returns each
// bucket's share of flat CPU time.
func bucketTop(r io.Reader) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(r)
	inTable := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "flat ") {
			inTable = true
			continue
		}
		if !inTable || line == "" {
			continue
		}
		// flat flat% sum% cum cum% name...
		fields := strings.Fields(line)
		if len(fields) < 6 {
			return nil, fmt.Errorf("pprof -top: malformed row %q", line)
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: flat %q: %w", fields[0], err)
		}
		name := strings.Join(fields[5:], " ")
		flat[bucketOf(name)] += ms
		total += ms
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -top: no samples")
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = flat[b] / total
	}
	return shares, nil
}

// profileShares runs `go tool pprof -top` on a CPU profile of binary
// and buckets the result.
func profileShares(binary, profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000", binary, profile)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w: %s", profile, err, stderr.String())
	}
	return bucketTop(strings.NewReader(string(out)))
}
