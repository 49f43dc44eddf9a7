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
	"strings"
	"time"

	"pacc"
	"pacc/internal/collective"
	"pacc/internal/prof"
	"pacc/internal/report"
	"pacc/internal/stats"
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
		obsSpec  = flag.String("obs", "alltoall:256K:proposed", "demo run for -trace/-metrics as op:size:mode; ops: "+strings.Join(collective.OpNames(), ", "))
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

// captureObs runs one instrumented collective call on the default testbed
// (optionally under a fault-injection spec and a wall-clock timeout) and
// writes the merged trace and/or metrics snapshot.
func captureObs(spec, faultSpec, planName, tracePath, metricsPath, reportPath string, timeout time.Duration) error {
	call, bytes, mode, err := parseObsSpec(spec)
	if err != nil {
		return err
	}
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
// "alltoall:256K:proposed", and resolves the op in the collective
// catalogue.
func parseObsSpec(spec string) (collective.OpFunc, int64, pacc.PowerMode, error) {
	parts := strings.Split(spec, ":")
	if len(parts) != 3 {
		return nil, 0, 0, fmt.Errorf("bad -obs spec %q (want op:size:mode)", spec)
	}
	call, ok := collective.Op(parts[0])
	if !ok {
		return nil, 0, 0, fmt.Errorf("unknown -obs op %q (have: %s)", parts[0], strings.Join(collective.OpNames(), ", "))
	}
	bytes, err := stats.ParseBytes(parts[1])
	if err != nil {
		return nil, 0, 0, err
	}
	mode, err := collective.ParsePowerMode(parts[2])
	if err != nil {
		return nil, 0, 0, fmt.Errorf("-obs: %w", err)
	}
	return call, bytes, mode, nil
}
