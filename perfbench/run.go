package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// run is one benchmark invocation: its budget, the samples it collects,
// its correctness ledger and, when traced, its span log.
type run struct {
	workload string
	seed     uint64
	budget   time.Duration
	traced   bool
	outDir   string

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string

	// End-to-end samples, from untraced units only: wall and setup in
	// seconds, latency in seconds per op, peak memory in MiB; opsTime is
	// the measured time the ops in latency took.
	wall, setup, latency, peakMem []float64
	opsTime                       time.Duration
	// tracedWall holds the wall time of traced units, for the tracing
	// overhead.
	tracedWall []float64
	// cal times the calibration kernel. A workload whose units run in
	// child processes, which calibrate and profile themselves, sets
	// unitsInChild.
	cal          calibrator
	unitsInChild bool
	// setupDisk, when set, holds the time of the disk reference kernel
	// taken just before each setup sample (see setupSamples).
	setupDisk []float64

	// layer holds per-layer samples by metric name, from traced units.
	layer map[string][]float64
	spans *spanLog
}

func newRun(workload string, seed uint64, budget time.Duration, traced bool, outDir string) *run {
	r := &run{workload: workload, seed: seed, budget: budget, traced: traced,
		outDir: outDir, layer: map[string][]float64{}}
	if traced {
		r.spans = &spanLog{t0: time.Now()}
	}
	return r
}

// op records one attempted op and whether it produced the right output.
func (r *run) op(ok bool, format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if !ok {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, fmt.Sprintf(format, args...))
		}
	}
}

// sample appends a per-layer sample.
func (r *run) sample(name string, v float64) {
	r.mu.Lock()
	r.layer[name] = append(r.layer[name], v)
	r.mu.Unlock()
}

// measure runs units until the budget is spent, at least one per phase.
// A unit returns the host time of its fixed work; correctness checks,
// cold-state resets and calibration run outside that time. An untraced
// run is one untraced phase. A traced run spends the first half of its budget on
// untraced units, the baseline for the tracing overhead, and the second
// half on traced ones under a CPU profile.
func (r *run) measure(unit func(traced bool) (time.Duration, error)) error {
	phases := []bool{false}
	if r.traced {
		phases = append(phases, true)
	}
	share := r.budget / time.Duration(len(phases))
	for _, traced := range phases {
		if traced && !r.unitsInChild {
			stop, err := r.startProfile()
			if err != nil {
				return err
			}
			defer stop()
		}
		start := time.Now()
		calibrate := !traced && !r.unitsInChild
		for i := 0; i < calFirst && calibrate; i++ {
			if err := r.cal.once(); err != nil {
				return err
			}
		}
		var last time.Duration
		for n := 0; n == 0 || time.Since(start)+last <= share; n++ {
			d, err := unit(traced)
			if err != nil {
				return err
			}
			last = d
			if traced {
				r.tracedWall = append(r.tracedWall, d.Seconds())
			} else {
				r.wall = append(r.wall, d.Seconds())
				if calibrate {
					if err := r.cal.after(d); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// profilePath is where the traced phase's CPU profile goes.
func (r *run) profilePath() string {
	return filepath.Join(r.outDir, fmt.Sprintf("cpu-%s-%d.pprof", r.workload, r.seed))
}

// startProfile starts the CPU profile of the traced phase; the returned
// function stops it.
func (r *run) startProfile() (func(), error) {
	f, err := os.Create(r.profilePath())
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			r.op(false, "close cpu profile: %v", err)
		}
	}, nil
}

// memStats is the slice of runtime.MemStats the go.* metrics use.
type memStats struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	pauseNs             uint64
}

func readMemStats() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{m.Mallocs, m.TotalAlloc, m.NumGC, m.PauseTotalNs}
}

// sampleGo records the go.* per-layer samples of one unit.
func (r *run) sampleGo(before, after memStats, events int) {
	mallocs := float64(after.mallocs - before.mallocs)
	r.sample("go.mallocs", mallocs)
	r.sample("go.alloc_mb", float64(after.allocBytes-before.allocBytes)/(1<<20))
	r.sample("go.gc_cycles", float64(after.gcCycles-before.gcCycles))
	r.sample("go.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6)
	if events > 0 {
		r.sample("go.allocs_per_event", mallocs/float64(events))
	}
}

// resetPeakMem returns the heap to the OS and resets the kernel's
// resident-set high-water mark, so the next peakMemMB reading covers
// only what runs in between. It fails if the reset did not take.
func resetPeakMem() error {
	runtime.GC()
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	hwm, err := procStatusKB("VmHWM")
	if err != nil {
		return err
	}
	rss, err := procStatusKB("VmRSS")
	if err != nil {
		return err
	}
	if hwm > rss+4096 {
		return fmt.Errorf("peak RSS reset did not take: VmHWM %d kB > VmRSS %d kB", hwm, rss)
	}
	return nil
}

// peakMemMB is the resident-set high-water mark in MiB.
func peakMemMB() (float64, error) {
	kb, err := procStatusKB("VmHWM")
	return float64(kb) / 1024, err
}

func procStatusKB(field string) (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return 0, fmt.Errorf("no %s in /proc/self/status", field)
}

// spanLog keeps host-time spans around the public calls the benchmark
// makes, in memory, until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// add records a finished span and returns its id (0 on a nil log).
func (l *spanLog) add(parent int, name string, start, end time.Time) int {
	id := l.open(parent, name, start)
	l.close(id, end)
	return id
}

// open starts a span and returns its id (0 on a nil log).
func (l *spanLog) open(parent int, name string, start time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		StartUs: start.Sub(l.t0).Microseconds()})
	return len(l.spans)
}

// close ends the span id opened earlier.
func (l *spanLog) close(id int, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans[id-1].EndUs = end.Sub(l.t0).Microseconds()
	l.mu.Unlock()
}

// timed runs fn inside a span named name and returns its host time.
func (l *spanLog) timed(parent int, name string, fn func()) time.Duration {
	start := time.Now()
	id := l.open(parent, name, start)
	fn()
	end := time.Now()
	l.close(id, end)
	return end.Sub(start)
}

// write stores the spans as JSON, with each name's count and self time:
// duration minus the part of it that child spans cover. Children may
// overlap (concurrent clients), so their union is what counts.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range l.spans {
		if s.Parent > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	child := make(map[int]int64, len(kids))
	for id, ks := range kids {
		child[id] = coveredUs(ks)
	}
	type agg struct {
		Count  int   `json:"count"`
		TotUs  int64 `json:"total_us"`
		SelfUs int64 `json:"self_us"`
	}
	byName := map[string]*agg{}
	for _, s := range l.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.Count++
		a.TotUs += s.EndUs - s.StartUs
		a.SelfUs += s.EndUs - s.StartUs - child[s.ID]
	}
	b, err := json.MarshalIndent(struct {
		Summary map[string]*agg `json:"summary"`
		Spans   []span          `json:"spans"`
	}{byName, l.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// coveredUs is the length of the union of the spans' intervals.
func coveredUs(spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartUs < spans[j].StartUs })
	var total, end int64
	for i, s := range spans {
		if i == 0 || s.StartUs > end {
			total += s.EndUs - s.StartUs
			end = s.EndUs
		} else if s.EndUs > end {
			total += s.EndUs - end
			end = s.EndUs
		}
	}
	return total
}
