package main

import (
	"fmt"
	"strconv"
	"time"

	"pacc/internal/collective"
)

// scaleJobs are the cluster-scale case: one recursive-doubling
// allreduce and one allgather, each on a fresh 4096-rank world (512
// nodes x 8 ranks), no power scheme.
var scaleJobs = []job{
	{name: "allreduce_rd", procs: 4096, ppn: 8, bytes: 4 << 10, iters: 1, call: collective.AllreduceRD},
	{name: "allgather_rd", procs: 4096, ppn: 8, bytes: 1 << 10, iters: 1, call: collective.AllgatherRD},
}

// scale4096 runs units of both jobs. An op is one job; its latency runs
// from NewWorld to the end of Engine.Run, and its peak RSS is measured
// from a reset taken just before it.
func scale4096(r *run) error {
	if r.traced {
		// Flow and transition counts live only on an obs bus, which
		// adds work of its own: read them once, from an extra run of
		// each job with a bus attached, before measuring starts, so
		// that neither the traced units' times nor their CPU profile
		// see it.
		var sum simOut
		for _, j := range scaleJobs {
			sr, err := simulate(nil, 0, j, true, false)
			if err != nil {
				return err
			}
			sum = sum.plus(sr.out)
			r.checkSim("scale-4096/"+j.name, sr.out, false)
		}
		r.sampleModel(sum)
	}
	return r.measure(func(traced bool) (time.Duration, error) {
		var wall time.Duration
		if !traced {
			for _, j := range scaleJobs {
				if err := resetPeakMem(); err != nil {
					return 0, err
				}
				sr, err := simulate(nil, 0, j, false, false)
				if err != nil {
					return 0, err
				}
				peak, err := peakMemMB()
				if err != nil {
					return 0, err
				}
				d := sr.setup + sr.run
				wall += d
				r.setup = append(r.setup, sr.setup.Seconds())
				r.latency = append(r.latency, d.Seconds())
				r.peakMem = append(r.peakMem, peak)
				r.opsTime += d
				r.checkSim("scale-4096/"+j.name, sr.out, true)
			}
			return wall, nil
		}
		unit := r.spans.open(0, "scale-4096.unit", time.Now())
		defer func() { r.spans.close(unit, time.Now()) }()
		var events int
		var inRun time.Duration
		before := readMemStats()
		for _, j := range scaleJobs {
			sr, err := simulate(r.spans, unit, j, false, false)
			if err != nil {
				return 0, err
			}
			wall += sr.setup + sr.run
			events += sr.out.events
			inRun += sr.run
			r.sample("mpi.newworld_s", sr.newWorld.Seconds())
			r.checkSim("scale-4096/"+j.name, sr.out, true)
		}
		r.sampleGo(before, readMemStats(), events)
		r.sampleEngine(events, inRun)
		return wall, nil
	})
}

// checkSim counts one simulated job as an op, correct when its model
// outputs match the reference digest and, for a job run with no bus
// (withEvents), its executed event count matches the reference count.
func (r *run) checkSim(key string, o simOut, withEvents bool) {
	got := o.digest()
	events := strconv.Itoa(o.events)
	ok := matchGolden(key, got) && (!withEvents || matchGolden(key+"/events", events))
	r.op(ok, "%s: digest %s want %s, events %s want %s", key, got, golden[key], events, golden[key+"/events"])
}

// sampleEngine records the simtime.* samples of a unit: its executed
// events and the host time spent inside Engine.Run.
func (r *run) sampleEngine(events int, inRun time.Duration) {
	r.sample("simtime.events", float64(events))
	r.sample("simtime.run_s", inRun.Seconds())
	if events > 0 {
		r.sample("simtime.ns_per_event", float64(inRun.Nanoseconds())/float64(events))
		r.sample("simtime.events_per_s", float64(events)/inRun.Seconds())
	}
}

// scaleGolden records the reference digest of each job.
func scaleGolden(m map[string]string) error {
	for _, j := range scaleJobs {
		sr, err := simulate(nil, 0, j, false, false)
		if err != nil {
			return fmt.Errorf("scale-4096: %w", err)
		}
		m["scale-4096/"+j.name] = sr.out.digest()
		m["scale-4096/"+j.name+"/events"] = strconv.Itoa(sr.out.events)
	}
	return nil
}
