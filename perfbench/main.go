// Command perfbench is the pacc benchmark. It drives the simulator from
// outside, through the public functions of each layer, on one named
// workload, checks that the simulated outputs are correct, and prints
// its metrics as the last line of standard output:
//
//	go build -o perfbench . && ./perfbench -workload scale-4096 -seed 1 -seconds 15 -trace 0
//
// See README.md for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"pacc"
)

// workload is what runs a named workload, and the percentile its latency
// tail is reported at.
type workload struct {
	drive func(*run) error
	// tailPct is the highest percentile with at least ten samples beyond
	// it in a 25-second run: the tail rule applied to the op count such
	// a run makes. It is fixed per workload, so that runs with slightly
	// different op counts report the same percentile.
	tailPct float64
	// noBus is set for a workload whose profiled units run with no obs
	// bus attached, so that obs work must not show in its profile.
	noBus bool
}

var workloads = map[string]workload{
	"paper-eval":    {paperEval, 50, false},    // 21 experiments
	"scale-4096":    {scale4096, 100, true},    // 10-14 jobs: no percentile qualifies, so the maximum
	"sweep-closed":  {sweepClosed, 99, false},  // about 15000 requests
	"obs-analytics": {obsAnalytics, 90, false}, // about 300 passes
}

// maxNoBusObsShare is the most CPU the obs package may take in the
// profile of a noBus workload: its emission calls return at once with
// no bus, so anything more means obs work leaked into the profile.
const maxNoBusObsShare = 0.005

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_mem_mb", "MiB"},
	{"ok_frac", "ratio"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_ops_s", "1/s"},
}

// perLayer are the metrics of a traced run, after one experiments.<id>_s
// per registered experiment.
var perLayer = []metricDef{
	{"simtime.events", "count"},
	{"simtime.run_s", "s"},
	{"simtime.ns_per_event", "ns"},
	{"simtime.events_per_s", "events/s"},
	{"go.allocs_per_event", "count"},
	{"go.mallocs", "count"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"mpi.newworld_s", "s"},
	{"mpi.msgs", "count"},
	{"mpi.control_msgs", "count"},
	{"mpi.net_bytes", "B"},
	{"mpi.shm_bytes", "B"},
	{"network.bytes_moved", "B"},
	{"network.flows", "count"},
	{"power.dvfs_transitions", "count"},
	{"power.throttle_transitions", "count"},
	{"power.sim_energy_j", "J"},
	{"collective.sim_latency_us", "us"},
	{"sweep.submit_ms_p50", "ms"},
	{"sweep.submit_ms_p99", "ms"},
	{"sweep.queue_wait_ms_p50", "ms"},
	{"sweep.exec_ms_p50", "ms"},
	{"sweep.resolve_ms_p50", "ms"},
	{"sweep.dedupe_hit_rate", "ratio"},
	{"sweep.executions", "count"},
	{"sweep.replay_s", "s"},
	{"obs.events", "count"},
	{"obs.overhead_ns_per_event", "ns"},
	{"analyze.report_s", "s"},
	{"trace.write_s", "s"},
	{"trace.bytes", "B"},
}

// perLayerDefs is the full per-layer list in output order.
func perLayerDefs() []metricDef {
	var defs []metricDef
	for _, s := range pacc.Experiments() {
		defs = append(defs, metricDef{"experiments." + s.ID + "_s", "s"})
	}
	defs = append(defs, perLayer...)
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b, "ratio"})
	}
	return append(defs, metricDef{"bench.trace_overhead_frac", "ratio"}, metricDef{"bench.to_reference", "ratio"})
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 25, "how long the run measures")
	trace := flag.Int("trace", 0, "1 for the traced run, which reports the per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench-out", "directory for span logs, CPU profiles and scratch stores")
	child := flag.String("child", "", "internal: run as a paper-eval child process")
	profile := flag.String("profile", "", "internal: CPU profile path of a paper-eval child")
	goldenOut := flag.String("write-golden", "", "recompute the reference digests into this file and exit")
	flag.Parse()

	// One process, at most two threads running Go code, and never more
	// than the machine has.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	switch {
	case *child == "paper-eval":
		if err := paperChild(*profile); err != nil {
			fatal(err)
		}
		return
	case *goldenOut != "":
		if err := writeGolden(*goldenOut); err != nil {
			fatal(err)
		}
		return
	}
	wl, ok := workloads[*workload]
	if !ok {
		fatal(fmt.Errorf("unknown workload %q (have %s)", *workload, strings.Join(workloadNames(), ", ")))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be at least 1 and -trace 0 or 1"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	r := newRun(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err := wl.drive(r); err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	res := result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed}
	if r.traced {
		m, err := r.layerMetrics()
		if err != nil {
			fatal(err)
		}
		if obsShare := m["cpu.obs"].Value; wl.noBus && obsShare > maxNoBusObsShare {
			fatal(fmt.Errorf("%s: cpu.obs is %.4f with no obs bus attached (at most %g)", *workload, obsShare, maxNoBusObsShare))
		}
		res.Metrics = m
	} else {
		res.Metrics = r.endToEndMetrics(wl.tailPct)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "wrong output:", p)
	}
	r.printSummary(res, wl.tailPct)
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// endToEndMetrics reduces the untraced samples: medians of the timings,
// the latency tail at percentile tailPct, and the share of ops correct.
// Timings are in reference-machine seconds (see calibrate.go).
func (r *run) endToEndMetrics(tailPct float64) map[string]metric {
	f := r.cal.toReference()
	vals := map[string]float64{
		"wall_s":           f * median(r.wall),
		"setup_s":          median(r.setupSamples(f)),
		"peak_mem_mb":      median(r.peakMem),
		"ok_frac":          1 - float64(r.failed)/float64(max(r.attempted, 1)),
		"latency_p50_ms":   f * 1e3 * median(r.latency),
		"latency_tail_ms":  f * 1e3 * windowedPercentile(r.latency, tailPct),
		"throughput_ops_s": float64(len(r.latency)) / (f * r.opsTime.Seconds()),
	}
	m := make(map[string]metric, len(endToEnd))
	for _, d := range endToEnd {
		m[d.name] = metric{vals[d.name], d.unit}
	}
	return m
}

// layerMetrics reduces the traced samples to medians, adds the cpu.*
// shares of the traced phase's profile and the tracing overhead, and
// writes the span log. A metric whose layer the workload does not reach
// (or cannot see from outside the program) reads 0.
func (r *run) layerMetrics() (map[string]metric, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	shares, err := profileShares(self, r.profilePath())
	if err != nil {
		return nil, err
	}
	for b, v := range shares {
		r.layer["cpu."+b] = []float64{v}
	}
	r.layer["bench.trace_overhead_frac"] = []float64{median(r.tracedWall)/median(r.wall) - 1}
	r.layer["bench.to_reference"] = []float64{r.cal.toReference()}
	spanPath := filepath.Join(r.outDir, fmt.Sprintf("spans-%s-%d.json", r.workload, r.seed))
	if err := r.spans.write(spanPath); err != nil {
		return nil, err
	}
	m := map[string]metric{}
	for _, d := range perLayerDefs() {
		m[d.name] = metric{median(r.layer[d.name]), d.unit}
	}
	return m, nil
}

// printSummary prints a human-readable table: each timing as its median
// and, in reference seconds, its tail with the sample count.
func (r *run) printSummary(res result, tailPct float64) {
	f := r.cal.toReference()
	fmt.Printf("perfbench %s seed=%d traced=%v: %d ops attempted, %d failed; host timings x %.4f = reference seconds (calibration n=%d)\n",
		r.workload, r.seed, r.traced, res.Attempted, res.Failed, f, len(r.cal.samples))
	scaled := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = f * x
		}
		return out
	}
	timings := map[string][]float64{"wall_s": scaled(r.wall), "setup_s": r.setupSamples(f), "latency_p50_ms": scaled(r.latency)}
	if r.setupDisk != nil && !r.traced {
		fmt.Printf("  set-up in host seconds: median %.6g, of which the paired disk kernel's median %.6g\n",
			median(r.setup), median(r.setupDisk))
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		line := fmt.Sprintf("  %-34s %14.6g %s", n, m.Value, m.Unit)
		if xs, ok := timings[n]; ok && !r.traced {
			v, p := tail(xs)
			line += fmt.Sprintf("   (n=%d, p%g=%.6g s)", len(xs), p, v)
		}
		if n == "latency_tail_ms" && !r.traced {
			line += fmt.Sprintf("   (p%g of n=%d)", tailPct, len(r.latency))
		}
		fmt.Println(line)
	}
}
