package main

import (
	"fmt"
	"time"

	"pacc"
	"pacc/internal/collective"
	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// job is one simulated collective job: iters barrier-separated calls of
// call on every rank of a fresh world.
type job struct {
	name  string
	procs int
	ppn   int
	bytes int64
	iters int
	call  func(c *mpi.Comm, bytes int64, opt collective.Options) error
}

func (j job) config() mpi.Config {
	cfg := mpi.DefaultConfig()
	cfg.NProcs = j.procs
	cfg.PPN = j.ppn
	cfg.Topo.Nodes = j.procs / j.ppn
	return cfg
}

// simOut is what a job's simulation reports; all of it is deterministic.
type simOut struct {
	events     int
	elapsed    simtime.Duration
	energyJ    float64
	stats      mpi.MsgStats
	latencyUs  float64 // rank 0's mean virtual time per call
	bytesMoved int64
	// Counters only an attached obs bus keeps; 0 without one.
	flows, dvfs, throttle int64
}

// digest covers the model outputs, which must not depend on whether an
// obs bus is attached. The executed event count is left out: the power
// trace recorder an obs session attaches adds engine events of its own.
func (o simOut) digest() string {
	return newDigest().i64(int64(o.elapsed)).f64(o.energyJ).
		stats(o.stats).f64(o.latencyUs).i64(o.bytesMoved).sum()
}

// plus sums two jobs' outputs into one unit's.
func (o simOut) plus(p simOut) simOut {
	o.events += p.events
	o.elapsed += p.elapsed
	o.energyJ += p.energyJ
	o.stats.ShmEager += p.stats.ShmEager
	o.stats.ShmRendezvous += p.stats.ShmRendezvous
	o.stats.NetEager += p.stats.NetEager
	o.stats.NetRendezvous += p.stats.NetRendezvous
	o.stats.ShmBytes += p.stats.ShmBytes
	o.stats.NetBytes += p.stats.NetBytes
	o.stats.Control += p.stats.Control
	o.latencyUs += p.latencyUs
	o.bytesMoved += p.bytesMoved
	o.flows += p.flows
	o.dvfs += p.dvfs
	o.throttle += p.throttle
	return o
}

// simRun is one simulation with its host times.
type simRun struct {
	out      simOut
	newWorld time.Duration // mpi.NewWorld
	setup    time.Duration // NewWorld through Launch: before the first event
	run      time.Duration // Engine.Run
	sess     *pacc.ObsSession
}

// simulate builds a fresh world for j, optionally attaches an obs
// session (with streaming analytics if analytics is set), launches the
// ranks and runs the engine to completion. Spans go under parent.
func simulate(spans *spanLog, parent int, j job, attach, analytics bool) (*simRun, error) {
	sr := &simRun{}
	start := time.Now()
	var w *mpi.World
	var err error
	sr.newWorld = spans.timed(parent, "mpi.NewWorld", func() { w, err = mpi.NewWorld(j.config()) })
	if err != nil {
		return nil, err
	}
	if attach {
		spans.timed(parent, "pacc.AttachObs", func() {
			sr.sess = pacc.AttachObs(w)
			if analytics {
				sr.sess.EnableAnalytics()
			}
		})
	}
	tr := collective.NewTrace()
	var callErr error
	spans.timed(parent, "mpi.World.Launch", func() {
		w.Launch(func(r *mpi.Rank) {
			c := mpi.CommWorld(r)
			opt := collective.Options{}
			if r.ID() == 0 {
				opt.Trace = tr
			}
			for i := 0; i < j.iters; i++ {
				collective.Barrier(c)
				if err := j.call(c, j.bytes, opt); err != nil && callErr == nil {
					callErr = err
				}
			}
		})
	})
	sr.setup = time.Since(start)
	var events int
	sr.run = spans.timed(parent, "simtime.Engine.Run", func() { events, err = w.Engine().Run(simtime.Infinity) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", j.name, err)
	}
	if callErr != nil {
		return nil, fmt.Errorf("%s: %w", j.name, callErr)
	}
	sr.out = simOut{
		events:     events,
		elapsed:    simtime.Duration(w.Engine().Now()),
		energyJ:    w.Station().EnergyJoules(),
		stats:      w.Stats(),
		latencyUs:  tr.Phase(collective.PhaseTotal).Micros() / float64(j.iters),
		bytesMoved: w.Fabric().BytesMoved(),
	}
	if sr.sess != nil {
		bus := sr.sess.Bus()
		sr.out.flows = bus.Counter(obs.CtrNetFlows)
		sr.out.dvfs = bus.Counter(obs.CtrDVFSTransitions)
		sr.out.throttle = bus.Counter(obs.CtrThrottleTransitions)
	}
	return sr, nil
}

// sampleModel records a unit's deterministic work counters and model
// outputs as per-layer samples.
func (r *run) sampleModel(o simOut) {
	r.sample("mpi.msgs", float64(o.stats.Messages()))
	r.sample("mpi.control_msgs", float64(o.stats.Control))
	r.sample("mpi.net_bytes", float64(o.stats.NetBytes))
	r.sample("mpi.shm_bytes", float64(o.stats.ShmBytes))
	r.sample("network.bytes_moved", float64(o.bytesMoved))
	r.sample("network.flows", float64(o.flows))
	r.sample("power.dvfs_transitions", float64(o.dvfs))
	r.sample("power.throttle_transitions", float64(o.throttle))
	r.sample("power.sim_energy_j", o.energyJ)
	r.sample("collective.sim_latency_us", o.latencyUs)
}
