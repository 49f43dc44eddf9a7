// Package chaos is the crash-fuzzing harness: it turns a single uint64
// seed into a randomized fault schedule — crash-stop rank failures, link
// degradation/down windows, stragglers with jitter, sticky power
// transitions, and (with Options.Corrupt) in-flight bit flips plus
// memory-corruption bursts — runs a fault-tolerant collective workload
// under it, and checks the invariants that must hold no matter what the
// schedule did:
//
//   - the simulation terminates (no deadlock; under corruption, a
//     retry-budget abort must carry a typed integrity error),
//   - every survivor converges on the same final group and on the sum of
//     exactly that group's contributions — or, under corruption, every
//     survivor returns a typed integrity/failure error; a silently wrong
//     sum or a finished/erred split across the group fails the run,
//   - every survivor core ends at fmax / T0,
//   - no surviving rank leaves an unbalanced async span on the timeline
//     (dead ranks' half-open spans are tombstones and are excused),
//   - cluster energy accounting is non-negative and monotone.
//
// Everything is deterministic: the same seed reproduces the same spec,
// the same simulation, and byte-identical metric and trace exports, so
// any fuzzer-found counterexample replays exactly.
package chaos

import (
	"bytes"
	"fmt"

	"pacc/internal/collective"
	"pacc/internal/fault"
	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// rng is splitmix64 — the same generator the injector's decision hashes
// build on, chained here as a stream.
type rng struct{ x uint64 }

func (r *rng) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) f64() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) dur(lo, hi simtime.Duration) simtime.Duration {
	return lo + simtime.Duration(r.next()%uint64(hi-lo+1))
}

const us = simtime.Microsecond

// GenSpec derives a randomized fault spec from one seed. At most half the
// job crashes, so a survivor group always exists; message loss stays off
// because a retry-budget exhaustion aborts the run by design and would
// mask the invariants this harness is after.
func GenSpec(seed uint64, procs, nodes int) *fault.Spec {
	r := &rng{x: seed}
	s := &fault.Spec{Seed: seed, RetryBudget: fault.DefaultRetryBudget}

	for n := r.intn(procs/2 + 1); n > 0; n-- {
		s.Crashes = append(s.Crashes, fault.Crash{
			Rank: r.intn(procs),
			At:   r.dur(5*us, 400*us),
		})
	}
	s.DetectTimeout = r.dur(20*us, 150*us)

	for n := r.intn(3); n > 0; n-- {
		dir := "up"
		if r.intn(2) == 1 {
			dir = "down"
		}
		s.LinkFaults = append(s.LinkFaults, fault.LinkFault{
			Link:     fmt.Sprintf("node%d-%s", r.intn(nodes), dir),
			Factor:   []float64{0, 0.25, 0.5}[r.intn(3)],
			Start:    r.dur(0, 200*us),
			Duration: r.dur(50*us, 400*us),
		})
	}

	if r.intn(2) == 1 {
		s.Stragglers = append(s.Stragglers, fault.Straggler{
			Rank:     r.intn(procs),
			Slowdown: 1 + 2*r.f64(),
		})
		s.ComputeJitter = 0.3 * r.f64()
	}

	if r.intn(2) == 1 {
		s.PStateDelay = r.dur(0, 30*us)
		s.TStateDelay = r.dur(0, 30*us)
		s.StickProb = 0.5 * r.f64()
	}

	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("chaos: generated invalid spec from seed %d: %v", seed, err))
	}
	return s
}

// GenSpecCorrupt extends GenSpec with seeded data-corruption clauses:
// in-flight bit flips per message class (caught by the transport ICRC and
// retransmitted), memory-corruption burst windows (caught only by the
// ABFT-checked collectives), and the T-state error-rate coupling. The
// corruption stream is salted so the crash/link/straggler part of the
// schedule stays identical to GenSpec's for the same seed.
func GenSpecCorrupt(seed uint64, procs, nodes int) *fault.Spec {
	s := GenSpec(seed, procs, nodes)
	r := &rng{x: seed ^ 0xc0bb1e5}

	// In-flight corruption: every corrupted attempt costs a NACK and a
	// retransmit, so even high rates only slow the run down — with the
	// occasional seed pushing a message past its retry budget, which must
	// then surface as a typed abort, never wrong data.
	if r.intn(2) == 1 {
		s.DataCorrupt = 0.25 * r.f64()
		s.EagerCorrupt = 0.25 * r.f64()
	}
	if r.intn(2) == 1 {
		s.RTSCorrupt = 0.1 * r.f64()
		s.CTSCorrupt = 0.1 * r.f64()
	}
	s.TStateErrFactor = float64(r.intn(3))

	// Memory-corruption bursts: sequential (non-overlapping) windows, so
	// the generated spec round-trips through the Parse hardening that
	// rejects overlapping windows per rank.
	start := simtime.Duration(0)
	for n := 1 + r.intn(3); n > 0; n-- {
		start += r.dur(0, 150*us)
		d := r.dur(20*us, 150*us)
		s.MemBursts = append(s.MemBursts, fault.MemBurst{
			Rank:     r.intn(procs+1) - 1, // -1 = all ranks
			Prob:     0.8 * r.f64(),
			Start:    start,
			Duration: d,
		})
		start += d
	}

	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("chaos: generated invalid corrupt spec from seed %d: %v", seed, err))
	}
	return s
}

// GenSpecSlow derives a pure fail-slow schedule from one seed: no
// crashes, no link faults — every rank survives and the job must
// complete — but 1-2 windowed compute degradations (factor 2-8x),
// optionally a straggler with jitter, slow power transitions, and lost
// transition writes (stickfail). The stream is salted so it shares
// nothing with GenSpec's crash schedule, and the windows are generated
// sequentially so the spec round-trips through the Parse hardening that
// rejects per-rank overlaps. The schedule arms the runtime's fail-slow
// detection (see mpi scoreboard), making the campaign exercise the whole
// detect → agree → recover/demote pipeline.
func GenSpecSlow(seed uint64, procs, nodes int) *fault.Spec {
	r := &rng{x: seed ^ 0x51033}
	s := &fault.Spec{Seed: seed, RetryBudget: fault.DefaultRetryBudget}

	start := simtime.Duration(0)
	for n := 1 + r.intn(2); n > 0; n-- {
		start += r.dur(0, 100*us)
		d := r.dur(100*us, 600*us)
		s.Slows = append(s.Slows, fault.Slow{
			Rank:     r.intn(procs),
			Factor:   2 + 6*r.f64(),
			Start:    start,
			Duration: d,
		})
		start += d
	}

	if r.intn(2) == 1 {
		s.Stragglers = append(s.Stragglers, fault.Straggler{
			Rank:     r.intn(procs),
			Slowdown: 1 + 2*r.f64(),
		})
		s.ComputeJitter = 0.3 * r.f64()
	}

	if r.intn(2) == 1 {
		s.PStateDelay = r.dur(0, 30*us)
		s.TStateDelay = r.dur(0, 30*us)
		s.StickProb = 0.5 * r.f64()
	}

	if r.intn(2) == 1 {
		// Capped well below 1 so bounded re-issue (RecoverPower) converges.
		s.StickFailProb = 0.4 * r.f64()
	}

	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("chaos: generated invalid fail-slow spec from seed %d: %v", seed, err))
	}
	return s
}

// slowdownBound returns the multiplicative completion-time bound a
// fail-slow schedule may legitimately impose on the healthy baseline: the
// worst compute stretch any rank can see (slow window × straggler ×
// jitter, and the fmax/fmin ratio while a lost DVFS write is stuck),
// with 3x protocol headroom for detection censuses, demotion reorders and
// transition retries.
func slowdownBound(s *fault.Spec, freqRatio float64) float64 {
	stretch := 1.0
	for _, sl := range s.Slows {
		if sl.Factor > stretch {
			stretch = sl.Factor
		}
	}
	worst := 1.0
	for _, st := range s.Stragglers {
		if st.Slowdown > worst {
			worst = st.Slowdown
		}
	}
	stretch *= worst * (1 + s.ComputeJitter)
	if s.StickFailProb > 0 {
		stretch *= freqRatio
	}
	return 3 * stretch
}

// Options configures one chaos run. Zero values select the defaults.
type Options struct {
	// Seed drives the whole schedule (GenSpec) and nothing else.
	Seed uint64
	// Procs / PPN shape the job (default 8 ranks, 4 per node).
	Procs, PPN int
	// Iters is how many resilient allreduces each rank runs back to back,
	// the communicator shrinking across iterations as ranks die (default 3).
	Iters int
	// Bytes per rank and call (default 32 KiB — above the power threshold,
	// so DVFS brackets are in play when a crash aborts a schedule).
	Bytes int64
	// Corrupt adds seeded data-corruption clauses to the schedule
	// (GenSpecCorrupt) and switches the workload to the ABFT-checked
	// resilient allreduce. The pass criterion then becomes the end-to-end
	// integrity invariant: every survivor either converges on the correct
	// sum or returns a typed integrity/failure error — a silently wrong
	// value anywhere fails the run.
	Corrupt bool
	// FailSlow switches the schedule to GenSpecSlow — gray failures only,
	// no crashes — and adds the fail-slow invariants: the full group must
	// complete with the correct sum, completion time must stay within
	// slowdownBound of a healthy twin run of the same shape, no rank
	// outside the schedule's slow/straggler set may be suspected (when
	// transition loss is off), and every core still ends at fmax / T0.
	// Takes precedence over Corrupt.
	FailSlow bool
}

func (o *Options) defaults() {
	if o.Procs == 0 {
		o.Procs = 8
	}
	if o.PPN == 0 {
		o.PPN = 4
	}
	if o.Iters == 0 {
		o.Iters = 3
	}
	if o.Bytes == 0 {
		o.Bytes = 32 << 10
	}
}

// Result carries what a successful chaos run produced, for replay
// comparison and debugging.
type Result struct {
	// Spec is the generated fault schedule.
	Spec *fault.Spec
	// FinalGroup is the global membership of the communicator the last
	// iteration completed on (identical across survivors, by invariant).
	FinalGroup []int
	// Sum is the agreed allreduce result of the last iteration.
	Sum float64
	// Metrics and Trace are the exported metrics/trace JSON; two runs with
	// the same options produce byte-identical copies.
	Metrics, Trace []byte
	// Elapsed is the simulated completion time of the run (0 when the
	// simulation aborted). Deterministic, so replays must agree on it;
	// fail-slow campaigns also bound it against a healthy twin.
	Elapsed simtime.Duration
	// Suspects is the detection layer's final suspect set (fail-slow
	// campaigns only; nil otherwise).
	Suspects []int
	// Err is the typed, group-uniform error outcome of a corrupted run
	// (nil when the workload completed): either every survivor returned a
	// classifiable integrity/failure error, or the simulation aborted on
	// a retry-budget exhaustion naming the undeliverable message. Both
	// count as a pass — the invariant is correct value XOR typed error,
	// never a silent wrong sum. FinalGroup and Sum are unset when Err is.
	Err error
}

// Run executes one seeded chaos scenario and checks every invariant,
// returning a descriptive error (including the spec, for reproduction) on
// the first violation.
func Run(o Options) (*Result, error) {
	o.defaults()
	cfg := mpi.DefaultConfig()
	cfg.NProcs = o.Procs
	cfg.PPN = o.PPN
	switch {
	case o.FailSlow:
		cfg.Fault = GenSpecSlow(o.Seed, o.Procs, cfg.Topo.Nodes)
	case o.Corrupt:
		cfg.Fault = GenSpecCorrupt(o.Seed, o.Procs, cfg.Topo.Nodes)
	default:
		cfg.Fault = GenSpec(o.Seed, o.Procs, cfg.Topo.Nodes)
	}
	fail := func(format string, args ...any) error {
		return fmt.Errorf("chaos seed %d [%s]: %s", o.Seed, cfg.Fault, fmt.Sprintf(format, args...))
	}

	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return nil, fail("world: %v", err)
	}
	bus := obs.NewBus(w.Engine())
	w.AttachObs(bus)

	finished := make([]bool, o.Procs)
	sums := make([]float64, o.Procs)
	groups := make([][]int, o.Procs)
	bodyErrs := make([]error, o.Procs)
	energyDips := make([]string, o.Procs)

	w.Launch(func(r *mpi.Rank) {
		me := r.ID()
		c := mpi.CommWorld(r)
		last := w.Station().EnergyJoules()
		if last < 0 {
			energyDips[me] = fmt.Sprintf("negative energy %g at start", last)
		}
		for it := 0; it < o.Iters; it++ {
			sum, fc, err := collective.AllreduceSumFT(c, o.Bytes, float64(me+1),
				collective.Options{Power: collective.FreqScaling, Verify: o.Corrupt})
			if err != nil {
				bodyErrs[me] = err
				return
			}
			c, sums[me] = fc, sum
			if e := w.Station().EnergyJoules(); e < last {
				energyDips[me] = fmt.Sprintf("energy fell %g -> %g after iteration %d", last, e, it)
			} else {
				last = e
			}
		}
		if o.FailSlow {
			// Job epilogue: a rank whose last scale-up write was lost
			// insists on the restore — bounded per call, repeated until
			// the write lands (loss probability is capped below 1).
			r.RecoverPower(64)
		}
		g := make([]int, c.Size())
		for i := range g {
			g[i] = c.Global(i)
		}
		groups[me] = g
		finished[me] = true
	})

	export := func(res *Result) (*Result, error) {
		var mb, tb bytes.Buffer
		if err := bus.WriteMetricsJSON(&mb); err != nil {
			return nil, fail("metrics export: %v", err)
		}
		if err := bus.WriteChromeTrace(&tb); err != nil {
			return nil, fail("trace export: %v", err)
		}
		res.Metrics, res.Trace = mb.Bytes(), tb.Bytes()
		return res, nil
	}

	elapsed, err := w.Run()
	if err != nil {
		if o.Corrupt && mpi.IsIntegrity(err) {
			// A message spent its whole retry budget on ICRC rejects: the
			// run aborts with a typed error naming the undeliverable
			// message instead of ever delivering bad data. Ranks may be
			// parked mid-iteration, so the completion invariants don't
			// apply — but the abort must still replay byte-identically.
			return export(&Result{Spec: cfg.Fault, Err: err})
		}
		return nil, fail("run: %v", err)
	}

	dead := map[int]bool{}
	for _, id := range w.DeadRanks() {
		dead[id] = true
	}
	typed := func(err error) bool { return mpi.IsFailure(err) || collective.IsIntegrity(err) }
	var group []int
	var firstErr error
	finishedN, erredN := 0, 0
	for me := 0; me < o.Procs; me++ {
		if dead[me] {
			continue
		}
		if energyDips[me] != "" {
			return nil, fail("rank %d: %s", me, energyDips[me])
		}
		if err := bodyErrs[me]; err != nil {
			// Under corruption a typed error outcome is legitimate: the
			// checked workload ran out of integrity retries. Anything
			// unclassifiable — or any error without corruption enabled —
			// still fails the run.
			if !o.Corrupt || !typed(err) {
				return nil, fail("rank %d: %v", me, err)
			}
			if firstErr == nil {
				firstErr = err
			}
			erredN++
			continue
		}
		if !finished[me] {
			return nil, fail("survivor %d never finished its iterations", me)
		}
		finishedN++
		if group == nil {
			group = groups[me]
		} else if fmt.Sprint(groups[me]) != fmt.Sprint(group) {
			return nil, fail("survivors disagree on the final group: %v vs %v", groups[me], group)
		}
	}
	if erredN > 0 && finishedN > 0 {
		// Round agreement makes error outcomes group-uniform: a mix of
		// finished and erred survivors means the group diverged.
		return nil, fail("survivors diverged: %d finished while %d returned errors", finishedN, erredN)
	}
	deadTrack := map[obs.Track]bool{}
	for id := range dead {
		deadTrack[w.Rank(id).ObsTrack()] = true
	}
	if open := bus.UnbalancedAsyncs(func(t obs.Track) bool { return deadTrack[t] }); len(open) != 0 {
		return nil, fail("unbalanced async spans on surviving tracks: %v", open)
	}
	if erredN > 0 {
		for me := 0; me < o.Procs; me++ {
			if dead[me] {
				continue
			}
			core := w.Rank(me).Core()
			if core.FreqGHz() != cfg.Power.FMaxGHz || core.Throttle() != 0 {
				return nil, fail("erred survivor %d left at %.2f GHz / T%d, want fmax / T0",
					me, core.FreqGHz(), core.Throttle())
			}
		}
		return export(&Result{Spec: cfg.Fault, Err: firstErr, Elapsed: elapsed})
	}
	if group == nil {
		return nil, fail("no survivors finished")
	}
	want := 0.0
	inGroup := map[int]bool{}
	for _, g := range group {
		want += float64(g + 1)
		inGroup[g] = true
	}
	for me := 0; me < o.Procs; me++ {
		if dead[me] {
			continue
		}
		if !inGroup[me] {
			return nil, fail("survivor %d missing from the agreed final group %v", me, group)
		}
		if sums[me] != want {
			return nil, fail("survivor %d sum %g, want %g over group %v", me, sums[me], want, group)
		}
		core := w.Rank(me).Core()
		if core.FreqGHz() != cfg.Power.FMaxGHz || core.Throttle() != 0 {
			return nil, fail("survivor %d left at %.2f GHz / T%d, want fmax / T0",
				me, core.FreqGHz(), core.Throttle())
		}
	}

	res := &Result{Spec: cfg.Fault, FinalGroup: group, Sum: want, Elapsed: elapsed}
	if o.FailSlow {
		if len(group) != o.Procs {
			return nil, fail("fail-slow run lost members: final group %v, want all %d ranks", group, o.Procs)
		}
		res.Suspects = w.SuspectedRanks()
		if cfg.Fault.StickFailProb == 0 {
			// Without transition loss the only legitimately slow ranks are
			// the scheduled ones; suspecting anyone else is a detector
			// false positive (e.g. wait time leaking into the lag EWMA).
			allowed := map[int]bool{}
			for _, id := range cfg.Fault.SlowRanks() {
				allowed[id] = true
			}
			for _, id := range cfg.Fault.StragglerRanks() {
				allowed[id] = true
			}
			for _, id := range res.Suspects {
				if !allowed[id] {
					return nil, fail("healthy rank %d suspected (lag %.3f); only %v are degraded",
						id, w.ComputeLag(id), cfg.Fault.SlowRanks())
				}
			}
		}
		base, herr := healthyElapsed(o)
		if herr != nil {
			return nil, fail("healthy twin: %v", herr)
		}
		bound := slowdownBound(cfg.Fault, cfg.Power.FMaxGHz/cfg.Power.FMinGHz)
		limit := simtime.Duration(float64(base)*bound) + simtime.Millisecond
		if elapsed > limit {
			return nil, fail("bounded slowdown violated: %v > %v (healthy %v × %.1f + 1ms)",
				elapsed, limit, base, bound)
		}
	}
	return export(res)
}

// healthyElapsed runs the same job shape with no faults attached and
// returns its completion time — the baseline of the bounded-slowdown
// invariant. Detection stays disarmed, which is itself part of the
// contract: the healthy twin exercises the historical zero-overhead path.
func healthyElapsed(o Options) (simtime.Duration, error) {
	cfg := mpi.DefaultConfig()
	cfg.NProcs = o.Procs
	cfg.PPN = o.PPN
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		return 0, err
	}
	w.Launch(func(r *mpi.Rank) {
		c := mpi.CommWorld(r)
		for it := 0; it < o.Iters; it++ {
			_, fc, err := collective.AllreduceSumFT(c, o.Bytes, float64(r.ID()+1),
				collective.Options{Power: collective.FreqScaling})
			if err != nil {
				panic(err)
			}
			c = fc
		}
	})
	return w.Run()
}
