// Command powercoll regenerates the figures and tables of Kandalla et al.
// (ICPP 2010) from the pacc simulation.
//
// Usage:
//
//	powercoll -list                 # show available experiments
//	powercoll -exp fig7a            # run one experiment, print text
//	powercoll -exp all -scale 0.2   # run everything at reduced scale
//	powercoll -exp table1 -csv out/ # also write CSV files
//	powercoll -trace t.json -metrics m.json -obs alltoall:256K:proposed
//	                                # capture an instrumented demo run
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"pacc"
	"pacc/internal/prof"
	"pacc/internal/report"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id to run, or 'all'")
		scale    = flag.Float64("scale", 1.0, "experiment scale in (0,1]; 1 = paper fidelity")
		csv      = flag.String("csv", "", "directory to write CSV series/tables into")
		htmlP    = flag.String("html", "", "write an HTML report (inline SVG charts) to this file")
		list     = flag.Bool("list", false, "list registered experiments and exit")
		traceP   = flag.String("trace", "", "write a merged Chrome trace of an instrumented demo run to this file")
		metricP  = flag.String("metrics", "", "write a metrics JSON snapshot of the demo run to this file")
		reportP  = flag.String("report", "", "write an analytics report (critical path, slack, energy attribution) of the demo run to this file")
		obsSpec  = flag.String("obs", "alltoall:256K:proposed", "demo run for -trace/-metrics as op:size:mode")
		faultP   = flag.String("fault", "", "deterministic fault-injection spec for the demo run, e.g. 'seed=7;msgloss=0.02;degrade=node0-up@0.3:200us+2ms'; crash-stop syntax: 'crash=RANK@TIME;detect=DUR'; data corruption: 'corrupt=PROB;terrfactor=N;memburst=RANK@PROB:START+DUR' (RANK may be *)")
		planP    = flag.String("plan", "", "communication plan for the demo run: a registered builder name, or 'auto' for cost-based selection")
		timeoutP = flag.Duration("timeout", 0, "wall-clock budget for the demo run; an exceeded deadline aborts the simulation cleanly (0 = none)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole invocation to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile (at exit) to this file")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "powercoll:", err)
		os.Exit(1)
	}
	defer stopProf()

	if *traceP != "" || *metricP != "" || *reportP != "" {
		if err := captureObs(*obsSpec, *faultP, *planP, *traceP, *metricP, *reportP, *timeoutP); err != nil {
			fmt.Fprintln(os.Stderr, "powercoll:", err)
			os.Exit(1)
		}
		if *exp == "" {
			return
		}
	}

	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, s := range pacc.Experiments() {
			fmt.Printf("  %-17s %s\n", s.ID, s.Title)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id> or -exp all")
		}
		return
	}

	var ids []string
	if *exp == "all" {
		for _, s := range pacc.Experiments() {
			ids = append(ids, s.ID)
		}
	} else {
		ids = []string{*exp}
	}

	failed := false
	var collected []*pacc.ExperimentResult
	for _, id := range ids {
		start := time.Now()
		res, err := pacc.RunExperiment(id, *scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "powercoll: %s: %v\n", id, err)
			failed = true
			continue
		}
		res.Render(os.Stdout)
		fmt.Printf("\n(%s completed in %.1fs wall time)\n\n", id, time.Since(start).Seconds())
		collected = append(collected, res)
		if *csv != "" {
			if err := res.WriteCSV(*csv); err != nil {
				fmt.Fprintf(os.Stderr, "powercoll: writing CSV for %s: %v\n", id, err)
				failed = true
			}
		}
	}
	if *htmlP != "" && len(collected) > 0 {
		f, err := os.Create(*htmlP)
		if err != nil {
			fmt.Fprintln(os.Stderr, "powercoll:", err)
			os.Exit(1)
		}
		title := fmt.Sprintf("pacc reproduction results (scale %.2f)", *scale)
		if err := report.WriteHTML(f, title, collected); err != nil {
			fmt.Fprintln(os.Stderr, "powercoll:", err)
			failed = true
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "powercoll:", err)
			failed = true
		}
		fmt.Printf("wrote HTML report to %s\n", *htmlP)
	}
	if failed {
		os.Exit(1)
	}
}

// obsOps maps demo-run operation names to collective calls on the paper's
// default testbed.
var obsOps = map[string]func(c *pacc.Comm, bytes int64, opt pacc.CollectiveOptions) error{
	"alltoall": pacc.Alltoall,
	"bcast": func(c *pacc.Comm, b int64, o pacc.CollectiveOptions) error {
		return pacc.Bcast(c, 0, b, o)
	},
	"reduce": func(c *pacc.Comm, b int64, o pacc.CollectiveOptions) error {
		return pacc.Reduce(c, 0, b, o)
	},
	"allgather":      pacc.Allgather,
	"allreduce":      pacc.Allreduce,
	"allreduce_topo": pacc.AllreduceTopoAware,
	"gather": func(c *pacc.Comm, b int64, o pacc.CollectiveOptions) error {
		return pacc.Gather(c, 0, b, o)
	},
	"scatter": func(c *pacc.Comm, b int64, o pacc.CollectiveOptions) error {
		return pacc.Scatter(c, 0, b, o)
	},
}

// captureObs runs one instrumented collective call on the default testbed
// (optionally under a fault-injection spec and a wall-clock timeout) and
// writes the merged trace and/or metrics snapshot.
func captureObs(spec, faultSpec, planName, tracePath, metricsPath, reportPath string, timeout time.Duration) error {
	op, bytes, mode, err := parseObsSpec(spec)
	if err != nil {
		return err
	}
	call := obsOps[op]
	cfg := pacc.DefaultConfig()
	if faultSpec != "" {
		fs, err := pacc.ParseFaultSpec(faultSpec)
		if err != nil {
			return err
		}
		cfg.Fault = fs
	}
	w, err := pacc.NewWorld(cfg)
	if err != nil {
		return err
	}
	sess := pacc.AttachObs(w)
	if reportPath != "" {
		sess.EnableAnalytics()
	}
	var callErr error
	w.Launch(func(r *pacc.Rank) {
		opt := pacc.CollectiveOptions{Power: mode, Plan: planName}
		if err := call(pacc.CommWorld(r), bytes, opt); err != nil && callErr == nil {
			callErr = err
		}
	})
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	// A rank whose call fails can leave its peers blocked: report the
	// rank's error alongside the deadlock.
	_, runErr := w.RunContext(ctx)
	if err := errors.Join(callErr, runErr); err != nil {
		return err
	}
	if tracePath != "" {
		if err := sess.WriteTraceFile(tracePath); err != nil {
			return err
		}
		fmt.Printf("wrote merged Chrome trace of %s to %s\n", spec, tracePath)
	}
	if metricsPath != "" {
		if err := sess.WriteMetricsFile(metricsPath); err != nil {
			return err
		}
		fmt.Printf("wrote metrics snapshot of %s to %s\n", spec, metricsPath)
	}
	if reportPath != "" {
		if err := sess.WriteReportFile(reportPath); err != nil {
			return err
		}
		fmt.Printf("wrote analytics report of %s to %s\n", spec, reportPath)
	}
	return nil
}

// parseObsSpec splits an op:size:mode demo-run spec, e.g.
// "alltoall:256K:proposed".
func parseObsSpec(spec string) (string, int64, pacc.PowerMode, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return "", 0, 0, fmt.Errorf("bad -obs spec %q (want op:size:mode)", spec)
	}
	op := parts[0]
	if _, ok := obsOps[op]; !ok {
		names := make([]string, 0, len(obsOps))
		for k := range obsOps {
			names = append(names, k)
		}
		sort.Strings(names)
		return "", 0, 0, fmt.Errorf("unknown -obs op %q (have: %s)", op, strings.Join(names, ", "))
	}
	bytes, err := parseSize(parts[1])
	if err != nil {
		return "", 0, 0, err
	}
	var mode pacc.PowerMode
	switch parts[2] {
	case "no-power", "default":
		mode = pacc.NoPower
	case "freq-scaling", "dvfs":
		mode = pacc.FreqScaling
	case "proposed", "power-aware":
		mode = pacc.Proposed
	default:
		return "", 0, 0, fmt.Errorf("unknown -obs power mode %q (no-power, freq-scaling, proposed)", parts[2])
	}
	return op, bytes, mode, nil
}

// parseSize parses sizes like "512", "256K", "1M".
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "M"):
		mult = 1 << 20
		s = strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "K"):
		mult = 1 << 10
		s = strings.TrimSuffix(s, "K")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return v * mult, nil
}
