// Command osu runs OSU-microbenchmark-style latency/power sweeps of the
// simulated collectives, the measurement loop behind the paper's
// Figures 6-8.
//
// Usage:
//
//	osu -op alltoall -procs 64 -ppn 8 -mode proposed
//	osu -op bcast -sizes 16K,256K,1M -iters 5 -progression blocking
//	osu -op alltoall -size 256K -trace timeline.json   # Chrome trace
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"

	"pacc"
	"pacc/internal/collective"
	"pacc/internal/prof"
	"pacc/internal/stats"
)

// bwWindow is the number of in-flight messages in the bw test.
const bwWindow = 64

// ops are osu's own microbenchmarks; every other op name runs the
// collective catalogue's entry point (collective.Op).
var ops = map[string]collective.OpFunc{
	"barrier": func(c *pacc.Comm, b int64, o pacc.CollectiveOptions) error {
		start := c.Owner().Now()
		pacc.Barrier(c)
		o.Trace.Add("total", c.Owner().Now().Sub(start))
		return nil
	},
	// bw is the osu_bw windowed streaming bandwidth test: rank 0 keeps
	// bwWindow sends in flight toward a remote rank, which acknowledges
	// the window with a zero-byte message.
	"bw": func(c *pacc.Comm, b int64, o pacc.CollectiveOptions) error {
		me := c.Rank()
		peer := c.Size() / 2
		tag := c.TagBlock()
		switch me {
		case 0:
			start := c.Owner().Now()
			reqs := make([]*pacc.Request, bwWindow)
			for i := range reqs {
				reqs[i] = c.Isend(peer, b, tag+i)
			}
			pacc.WaitAll(reqs...)
			c.Recv(peer, 0, tag+bwWindow)
			o.Trace.Add("total", c.Owner().Now().Sub(start))
		case peer:
			reqs := make([]*pacc.Request, bwWindow)
			for i := range reqs {
				reqs[i] = c.Irecv(0, b, tag+i)
			}
			pacc.WaitAll(reqs...)
			c.Send(0, 0, tag+bwWindow)
		}
		return nil
	},
	// latency is the osu_latency ping-pong between rank 0 and a rank on
	// another node; the reported figure is the one-way latency (half the
	// round trip).
	"latency": func(c *pacc.Comm, b int64, o pacc.CollectiveOptions) error {
		me := c.Rank()
		peer := c.Size() / 2
		tag := c.TagBlock()
		switch me {
		case 0:
			start := c.Owner().Now()
			c.Send(peer, b, tag)
			c.Recv(peer, b, tag+1)
			o.Trace.Add("total", (c.Owner().Now().Sub(start))/2)
		case peer:
			c.Recv(0, b, tag)
			c.Send(0, b, tag+1)
		}
		return nil
	},
}

// lookupOp resolves an op name to its call. With verify set only the
// ops that honour the Verify option (collective.VerifyOpNames) are
// accepted.
func lookupOp(name string, verify bool) (collective.OpFunc, error) {
	call, ok := ops[name]
	if !ok {
		call, ok = collective.Op(name)
	}
	if !ok {
		return nil, fmt.Errorf("unknown op %q (have: %s)", name, opNames())
	}
	if verify && !slices.Contains(collective.VerifyOpNames(), name) {
		return nil, fmt.Errorf("-verify is not supported for op %q (have: %s)", name, verifyOpNames())
	}
	return call, nil
}

// opNames lists osu's microbenchmarks and the catalogue's ops, sorted.
func opNames() string {
	names := collective.OpNames()
	for name := range ops {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func verifyOpNames() string { return strings.Join(collective.VerifyOpNames(), ", ") }

func main() {
	var (
		op          = flag.String("op", "alltoall", "collective: "+opNames())
		procs       = flag.Int("procs", 64, "number of ranks")
		ppn         = flag.Int("ppn", 8, "ranks per node")
		modeStr     = flag.String("mode", "no-power", "power scheme: no-power, freq-scaling, proposed")
		sizesStr    = flag.String("sizes", "1K,4K,16K,64K,256K,1M", "comma-separated message sizes")
		oneSize     = flag.String("size", "", "single message size (overrides -sizes)")
		iters       = flag.Int("iters", 3, "timed iterations per size")
		progression = flag.String("progression", "polling", "polling or blocking")
		traceOut    = flag.String("trace", "", "write a merged Chrome trace (power + MPI + network + collective) of the last size's run to this file")
		metricsOut  = flag.String("metrics", "", "write a metrics JSON snapshot of the last size's run to this file")
		reportOut   = flag.String("report", "", "write an analytics report (critical path, per-rank slack, energy attribution) of the last size's run to this file; analyze further with cmd/paccprof")
		configPath  = flag.String("config", "", "load the base cluster configuration from a JSON file")
		dumpConfig  = flag.String("dump-config", "", "write the default configuration to this file and exit")
		faultSpec   = flag.String("fault", "", "deterministic fault-injection spec, e.g. 'seed=7;msgloss=0.02;degrade=node0-up@0.3:200us+2ms;straggler=1@1.5', 'crash=5@200us;detect=100us' (crash-stop; pair with -op allreduce_ft), 'seed=7;corrupt=0.05;terrfactor=2;memburst=3@0.2:100us+1ms' (in-flight bit flips are ICRC-rejected and retransmitted; memory bursts need -verify to be caught), or 'slow=3@8x:10ms+50ms;stickfail=0.3' (fail-slow: windowed gray degradation and lost power-transition writes; arms the fail-slow detector, pair with -op allreduce_ft for demotion)")
		planName    = flag.String("plan", "", "communication plan: a registered builder name, or 'auto' for cost-based selection")
		planObj     = flag.String("plan-objective", "latency", "objective for -plan auto: latency or energy")
		verify      = flag.Bool("verify", false, "self-verify collective data every iteration (ops: "+verifyOpNames()+"): sets the Verify option, so allreduce_rd appends checksum verification steps to its plan and allreduce_topo/allreduce_ft carry an ABFT checksum lane and compare the sum against the expected value")
		detect      = flag.Bool("detect", false, "arm fail-slow detection (per-rank compute-lag scoreboards and suspect censuses) even without a slow=/stickfail= fault clause; costs zero simulated time")
		timeout     = flag.Duration("timeout", 0, "wall-clock budget for the whole sweep; an exceeded deadline aborts the running simulation cleanly (0 = none)")
		interruptEv = flag.Int("interrupt-every", 0, "poll for -timeout cancellation every N executed events (0 = engine default, 256); lower means faster aborts at the cost of per-event overhead")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile (after the sweep) to this file")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "osu:", err)
		os.Exit(1)
	}
	defer stopProf()

	if *dumpConfig != "" {
		if err := pacc.SaveConfig(*dumpConfig, pacc.DefaultConfig()); err != nil {
			fmt.Fprintln(os.Stderr, "osu:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote default configuration to %s\n", *dumpConfig)
		return
	}
	baseCfg := pacc.DefaultConfig()
	if *configPath != "" {
		var err error
		baseCfg, err = pacc.LoadConfig(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "osu:", err)
			os.Exit(1)
		}
	}
	if *faultSpec != "" {
		spec, err := pacc.ParseFaultSpec(*faultSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "osu:", err)
			os.Exit(2)
		}
		baseCfg.Fault = spec
	}
	if *detect {
		baseCfg.FailSlowDetect = true
	}
	if *interruptEv != 0 {
		baseCfg.InterruptEvery = *interruptEv
	}

	call, err := lookupOp(*op, *verify)
	if err != nil {
		fmt.Fprintln(os.Stderr, "osu:", err)
		os.Exit(2)
	}
	mode, err := collective.ParsePowerMode(*modeStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "osu:", err)
		os.Exit(2)
	}
	opt := pacc.CollectiveOptions{Plan: *planName, Verify: *verify}
	switch *planObj {
	case "latency":
		opt.PlanObjective = pacc.SelectByLatency
	case "energy":
		opt.PlanObjective = pacc.SelectByEnergy
	default:
		fmt.Fprintf(os.Stderr, "osu: unknown -plan-objective %q (latency, energy)\n", *planObj)
		os.Exit(2)
	}
	var sizes []int64
	src := *sizesStr
	if *oneSize != "" {
		src = *oneSize
	}
	for _, tok := range strings.Split(src, ",") {
		v, err := stats.ParseBytes(tok)
		if err != nil {
			fmt.Fprintln(os.Stderr, "osu:", err)
			os.Exit(2)
		}
		sizes = append(sizes, v)
	}
	if *op == "barrier" {
		sizes = []int64{0}
	}

	fmt.Printf("# OSU-style %s benchmark (simulated)\n", *op)
	fmt.Printf("# %d ranks, %d per node, %s progression, %s scheme, %d iterations\n",
		*procs, *ppn, *progression, mode, *iters)
	if baseCfg.Fault != nil {
		fmt.Printf("# fault injection: %s\n", baseCfg.Fault.String())
	}
	if *verify {
		fmt.Printf("# data verification: on\n")
	}
	if *detect {
		fmt.Printf("# fail-slow detection: armed\n")
	}
	fmt.Printf("%-12s %14s %14s\n", "size(B)", "latency(us)", "cluster(W)")

	wantObs := *traceOut != "" || *metricsOut != "" || *reportOut != ""
	// A crash-stop spec kills ranks permanently, and the plain barrier has
	// no failure path: run the iterations back-to-back instead (the
	// resilient collective synchronizes the survivors itself).
	skipBarrier := baseCfg.Fault != nil && len(baseCfg.Fault.Crashes) > 0
	wantReport := *reportOut != ""
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	for _, size := range sizes {
		lat, watts, sess, err := measure(ctx, baseCfg, call, size, *procs, *ppn, mode, opt, *progression, *iters, wantObs, wantReport, skipBarrier)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintf(os.Stderr, "osu: sweep exceeded its -timeout of %v at size %d: %v\n", *timeout, size, err)
			} else {
				fmt.Fprintln(os.Stderr, "osu:", err)
			}
			os.Exit(1)
		}
		if *op == "bw" && lat > 0 {
			mbps := float64(bwWindow) * float64(size) / (lat / 1e6) / 1e6
			fmt.Printf("%-12d %14.2f %14.0f   %10.1f MB/s\n", size, lat, watts, mbps)
		} else {
			fmt.Printf("%-12d %14.2f %14.0f\n", size, lat, watts)
		}
		if wantObs && size == sizes[len(sizes)-1] {
			if *traceOut != "" {
				if err := sess.WriteTraceFile(*traceOut); err != nil {
					fmt.Fprintln(os.Stderr, "osu:", err)
					os.Exit(1)
				}
				fmt.Printf("# wrote merged Chrome trace to %s\n", *traceOut)
			}
			if *metricsOut != "" {
				if err := sess.WriteMetricsFile(*metricsOut); err != nil {
					fmt.Fprintln(os.Stderr, "osu:", err)
					os.Exit(1)
				}
				fmt.Printf("# wrote metrics snapshot to %s\n", *metricsOut)
			}
			if *reportOut != "" {
				if err := sess.WriteReportFile(*reportOut); err != nil {
					fmt.Fprintln(os.Stderr, "osu:", err)
					os.Exit(1)
				}
				fmt.Printf("# wrote analytics report to %s\n", *reportOut)
			}
		}
	}
}

// measure runs one barrier-separated OSU loop on a fresh world and
// returns the mean per-call latency (µs, from rank 0's trace) and mean
// cluster power over the whole run. ctx bounds the simulation: a
// cancellation or deadline aborts it with a typed pacc.CanceledError.
func measure(ctx context.Context, cfg pacc.Config, call collective.OpFunc, size int64,
	procs, ppn int, mode pacc.PowerMode, base pacc.CollectiveOptions, progression string, iters int,
	wantObs, wantReport, skipBarrier bool) (float64, float64, *pacc.ObsSession, error) {

	cfg.NProcs = procs
	cfg.PPN = ppn
	if procs%ppn != 0 {
		return 0, 0, nil, fmt.Errorf("procs %d not a multiple of ppn %d", procs, ppn)
	}
	cfg.Topo.Nodes = procs / ppn
	switch progression {
	case "polling":
		cfg.Mode = pacc.Polling
	case "blocking":
		cfg.Mode = pacc.Blocking
	default:
		return 0, 0, nil, fmt.Errorf("unknown progression %q", progression)
	}
	w, err := pacc.NewWorld(cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	var sess *pacc.ObsSession
	if wantObs {
		sess = pacc.AttachObs(w)
		if wantReport {
			sess.EnableAnalytics()
		}
	}
	var tr0 *pacc.Trace
	var callErr error
	w.Launch(func(r *pacc.Rank) {
		c := pacc.CommWorld(r)
		tr := pacc.NewTrace()
		if r.ID() == 0 {
			tr0 = tr
		}
		warm := base
		warm.Power = mode
		if err := call(c, size, warm); err != nil { // warm-up
			if callErr == nil {
				callErr = err
			}
			return
		}
		timed := warm
		timed.Trace = tr
		for i := 0; i < iters; i++ {
			if !skipBarrier {
				pacc.Barrier(c)
			}
			if err := call(c, size, timed); err != nil && callErr == nil {
				callErr = err
			}
		}
	})
	// A rank whose call fails leaves the loop and its peers then block in
	// the next barrier: report the rank's error alongside the deadlock.
	elapsed, runErr := w.RunContext(ctx)
	if err := errors.Join(callErr, runErr); err != nil {
		return 0, 0, nil, err
	}
	lat := tr0.Phase("total").Micros() / float64(iters)
	watts := w.Station().EnergyJoules() / elapsed.Seconds()
	return lat, watts, sess, nil
}
