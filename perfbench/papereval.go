package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"time"

	"pacc"
)

// paperScale is the fixed reduced scale of the paper-eval workload.
// Below about 0.01 the pass stops shrinking: fig9's application sweep
// has a floor of one iteration per run.
const paperScale = 0.01

// paperSetupProbes is how many extra children each run starts only to
// time process start-up, so setup_s is a median over several samples.
const paperSetupProbes = 15

// expTiming is one experiment of a pass.
type expTiming struct {
	ID      string  `json:"id"`
	StartS  float64 `json:"start_s"`
	Seconds float64 `json:"seconds"`
	Digest  string  `json:"digest"`
	Err     string  `json:"err,omitempty"`
}

// passResult is what a paper-eval child reports for its one pass.
type passResult struct {
	Experiments []expTiming `json:"experiments"`
	WallS       float64     `json:"wall_s"`
	PeakMemMB   float64     `json:"peak_mem_mb"`
	Mallocs     uint64      `json:"mallocs"`
	AllocBytes  uint64      `json:"alloc_bytes"`
	GCCycles    uint32      `json:"gc_cycles"`
	GCPauseNs   uint64      `json:"gc_pause_ns"`
	Cal         []float64   `json:"cal"`
	Err         string      `json:"err,omitempty"`
}

// experimentDigest hashes everything an experiment reports.
func experimentDigest(res *pacc.ExperimentResult) string {
	d := newDigest().str(res.ID).str(res.Title)
	d.i64(int64(len(res.Series)))
	for _, s := range res.Series {
		d.str(s.Name).str(s.XLabel).str(s.YLabel).f64s(s.X).f64s(s.Y)
	}
	d.i64(int64(len(res.Tables)))
	for _, t := range res.Tables {
		d.str(t.Title).i64(int64(len(t.Header)))
		for _, h := range t.Header {
			d.str(h)
		}
		d.i64(int64(len(t.Rows)))
		for _, row := range t.Rows {
			d.i64(int64(len(row)))
			for _, c := range row {
				d.str(c)
			}
		}
	}
	d.i64(int64(len(res.Notes)))
	for _, n := range res.Notes {
		d.str(n)
	}
	return d.sum()
}

// passesRun guards the report memo of the experiments package: fig9 and
// table1 (fig10 and table2) share one application sweep, memoized per
// process. A pass must be the first in its process, or the sweeps would
// be served from the memo instead of simulated.
var passesRun int

// runPaperPass runs every registered experiment once, in registry order.
// With calibrate set it also calibrates after each experiment, outside
// the experiments' times, where the machine's speed during the pass can
// be seen; a profiled pass does not, so the kernel stays out of the
// profile.
func runPaperPass(calibrate bool) passResult {
	passesRun++
	if passesRun != 1 {
		return passResult{Err: fmt.Sprintf("pass %d in one process would read the report memo", passesRun)}
	}
	var res passResult
	var cal calibrator
	// This calibrator syncs no files, so once and after cannot fail.
	for i := 0; i < calFirst && calibrate; i++ {
		cal.once()
	}
	before := readMemStats()
	start := time.Now()
	for _, spec := range pacc.Experiments() {
		t0 := time.Now()
		out, err := pacc.RunExperiment(spec.ID, paperScale)
		d := time.Since(t0)
		e := expTiming{ID: spec.ID, StartS: t0.Sub(start).Seconds(), Seconds: d.Seconds()}
		res.WallS += d.Seconds()
		if calibrate {
			cal.after(d)
		}
		if err != nil {
			e.Err = err.Error()
		} else {
			e.Digest = experimentDigest(out)
		}
		res.Experiments = append(res.Experiments, e)
	}
	res.Cal = cal.samples
	after := readMemStats()
	res.Mallocs = after.mallocs - before.mallocs
	res.AllocBytes = after.allocBytes - before.allocBytes
	res.GCCycles = after.gcCycles - before.gcCycles
	res.GCPauseNs = after.pauseNs - before.pauseNs
	peak, err := peakMemMB()
	if err != nil {
		res.Err = err.Error()
	}
	res.PeakMemMB = peak
	return res
}

// paperChild is the child side: report ready, then on "go" run one pass
// (under a CPU profile written to profile, if set) and print its result.
func paperChild(profile string) error {
	fmt.Println("ready")
	cmd, err := bufio.NewReader(os.Stdin).ReadString('\n')
	if err != nil || cmd != "go\n" {
		return nil
	}
	if profile != "" {
		f, err := os.Create(profile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	return json.NewEncoder(os.Stdout).Encode(runPaperPass(profile == ""))
}

// spawnPaper starts a paper-eval child and returns its start-up time,
// from exec to its ready line. With pass false the child is told to
// exit; otherwise it runs a pass and its result is returned.
func spawnPaper(self string, pass bool, profile string) (time.Duration, *passResult, error) {
	cmd := exec.Command(self, "-child", "paper-eval", "-profile", profile)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, err
	}
	out := bufio.NewReader(stdout)
	line, err := out.ReadString('\n')
	setup := time.Since(start)
	if err != nil || line != "ready\n" {
		stdin.Close()
		cmd.Wait()
		return 0, nil, fmt.Errorf("paper-eval child: no ready line (%q, %v)", line, err)
	}
	var res *passResult
	if pass {
		io.WriteString(stdin, "go\n")
		res = &passResult{}
		if err := json.NewDecoder(out).Decode(res); err != nil {
			stdin.Close()
			cmd.Wait()
			return 0, nil, fmt.Errorf("paper-eval child: %w", err)
		}
	}
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		return 0, nil, fmt.Errorf("paper-eval child: %w", err)
	}
	return setup, res, nil
}

// paperEval runs whole passes, one per fresh child process, so every
// pass starts with an empty report memo and its own peak RSS.
func paperEval(r *run) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	r.unitsInChild = true
	for i := 0; i < paperSetupProbes; i++ {
		setup, _, err := spawnPaper(self, false, "")
		if err != nil {
			return err
		}
		r.setup = append(r.setup, setup.Seconds())
	}
	return r.measure(func(traced bool) (time.Duration, error) {
		profile := ""
		if traced {
			profile = r.profilePath()
		}
		sent := time.Now()
		setup, res, err := spawnPaper(self, true, profile)
		if err != nil {
			return 0, err
		}
		if res.Err != "" {
			return 0, fmt.Errorf("paper-eval pass: %s", res.Err)
		}
		if err := r.checkPass(res); err != nil {
			return 0, err
		}
		wall := time.Duration(res.WallS * float64(time.Second))
		if traced {
			pass := r.spans.add(0, "paper-eval.pass", sent, sent.Add(setup+wall))
			base := sent.Add(setup)
			for _, e := range res.Experiments {
				s := base.Add(time.Duration(e.StartS * float64(time.Second)))
				r.spans.add(pass, "pacc.RunExperiment/"+e.ID, s, s.Add(time.Duration(e.Seconds*float64(time.Second))))
				r.sample("experiments."+e.ID+"_s", e.Seconds)
			}
			r.sample("go.mallocs", float64(res.Mallocs))
			r.sample("go.alloc_mb", float64(res.AllocBytes)/(1<<20))
			r.sample("go.gc_cycles", float64(res.GCCycles))
			r.sample("go.gc_pause_ms", float64(res.GCPauseNs)/1e6)
			return wall, nil
		}
		r.setup = append(r.setup, setup.Seconds())
		r.peakMem = append(r.peakMem, res.PeakMemMB)
		r.cal.samples = append(r.cal.samples, res.Cal...)
		for _, e := range res.Experiments {
			r.latency = append(r.latency, e.Seconds)
		}
		r.opsTime += wall
		return wall, nil
	})
}

// checkPass counts each experiment as an op, correct when it ran without
// error and its outputs match the reference digest. It fails the run if
// the pass was served from the report memo.
func (r *run) checkPass(res *passResult) error {
	want := len(pacc.Experiments())
	if len(res.Experiments) != want {
		return fmt.Errorf("paper-eval pass ran %d experiments, want %d", len(res.Experiments), want)
	}
	secs := map[string]float64{}
	for _, e := range res.Experiments {
		secs[e.ID] = e.Seconds
		key := "paper-eval/" + e.ID
		r.op(e.Err == "" && matchGolden(key, e.Digest), "%s: err %q digest %s want %s", key, e.Err, e.Digest, golden[key])
	}
	// table1 reads fig9's sweep from the memo; a cold pass pays for the
	// sweep in fig9, a memo-served one would not.
	if secs["fig9"] < 100*secs["table1"] {
		return fmt.Errorf("paper-eval: fig9 took %.4fs, table1 %.4fs: fig9's sweep was served from the report memo",
			secs["fig9"], secs["table1"])
	}
	return nil
}

// paperGolden records the reference digest of every experiment.
func paperGolden(m map[string]string) error {
	res := runPaperPass(false)
	if res.Err != "" {
		return fmt.Errorf("paper-eval: %s", res.Err)
	}
	for _, e := range res.Experiments {
		if e.Err != "" {
			return fmt.Errorf("paper-eval %s: %s", e.ID, e.Err)
		}
		m["paper-eval/"+e.ID] = e.Digest
	}
	return nil
}
