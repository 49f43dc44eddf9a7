package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"pacc"
	"pacc/internal/collective"
)

// obsJob is the canonical bench-guard run: 8 nodes x 8 ranks, 1 MiB
// topology-aware allreduce, five barrier-separated calls.
var obsJob = job{name: "allreduce_topo", procs: 64, ppn: 8, bytes: 1 << 20, iters: 5,
	call: collective.AllreduceTopoAware}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// obsPass is one pass of obs-analytics with its host times.
type obsPass struct {
	sim        *simRun
	report     time.Duration
	write      time.Duration
	traceBytes int64
	digest     string
}

// runObsPass simulates obsJob with an obs session and streaming
// analytics attached, then builds the analytics report and exports the
// Chrome trace into a discarding sink. withTraceHash also hashes the
// full trace bytes outside the timed region.
func runObsPass(spans *spanLog, parent int, withTraceHash bool) (*obsPass, error) {
	sr, err := simulate(spans, parent, obsJob, true, true)
	if err != nil {
		return nil, err
	}
	p := &obsPass{sim: sr}
	var report *pacc.AnalysisReport
	p.report = spans.timed(parent, "pacc.ObsSession.Report", func() { report = sr.sess.Report() })
	var sink countingWriter
	p.write = spans.timed(parent, "pacc.ObsSession.WriteTrace", func() { err = sr.sess.WriteTrace(&sink) })
	if err != nil {
		return nil, err
	}
	p.traceBytes = sink.n

	var rb bytes.Buffer
	if err := report.Write(&rb); err != nil {
		return nil, err
	}
	d := newDigest().str(sr.out.digest()).i64(int64(sr.out.events)).str(rb.String()).
		i64(p.traceBytes).i64(int64(sr.sess.Bus().Events()))
	if withTraceHash {
		h := sha256.New()
		if err := sr.sess.WriteTrace(h); err != nil {
			return nil, err
		}
		d.str(hex.EncodeToString(h.Sum(nil)))
	}
	p.digest = d.sum()
	return p, nil
}

func (p *obsPass) wall() time.Duration { return p.sim.setup + p.sim.run + p.report + p.write }

// obsKey is the golden key of a pass, with or without the trace hash.
func obsKey(withTraceHash bool) string {
	if withTraceHash {
		return "obs-analytics/pass+trace"
	}
	return "obs-analytics/pass"
}

// obsAnalytics runs passes until the budget is spent; an op is a pass.
// The first pass of each phase also checks the trace bytes. A traced
// unit adds a pass with no bus attached, so the bus's cost per emitted
// event can be measured.
func obsAnalytics(r *run) error {
	hashed := map[bool]bool{}
	return r.measure(func(traced bool) (time.Duration, error) {
		hash := !hashed[traced]
		hashed[traced] = true
		if !traced {
			if err := resetPeakMem(); err != nil {
				return 0, err
			}
		}
		unit := r.spans.open(0, "obs-analytics.pass", time.Now())
		before := readMemStats()
		p, err := runObsPass(r.spans, unit, hash)
		if err != nil {
			return 0, err
		}
		after := readMemStats()
		r.spans.close(unit, time.Now())
		key := obsKey(hash)
		ok := matchGolden(key, p.digest)
		wall := p.wall()
		if !traced {
			r.op(ok, "%s: digest %s want %s", key, p.digest, golden[key])
			peak, err := peakMemMB()
			if err != nil {
				return 0, err
			}
			r.peakMem = append(r.peakMem, peak)
			r.setup = append(r.setup, p.sim.setup.Seconds())
			r.latency = append(r.latency, wall.Seconds())
			r.opsTime += wall
			return wall, nil
		}
		events := p.sim.sess.Bus().Events()
		r.sampleGo(before, after, p.sim.out.events)
		r.sampleEngine(p.sim.out.events, p.sim.run)
		r.sampleModel(p.sim.out)
		r.sample("mpi.newworld_s", p.sim.newWorld.Seconds())
		r.sample("obs.events", float64(events))
		r.sample("analyze.report_s", p.report.Seconds())
		r.sample("trace.write_s", p.write.Seconds())
		r.sample("trace.bytes", float64(p.traceBytes))

		plain, err := simulate(r.spans, 0, obsJob, false, false)
		if err != nil {
			return 0, err
		}
		same := plain.out.digest() == p.sim.out.digest()
		r.op(ok && same, "%s: digest %s want %s; same outputs with no bus: %v", key, p.digest, golden[key], same)
		r.sample("obs.overhead_ns_per_event",
			float64((p.sim.run-plain.run).Nanoseconds())/float64(events))
		return wall, nil
	})
}

// obsGolden records the reference digests of a pass.
func obsGolden(m map[string]string) error {
	for _, hash := range []bool{false, true} {
		p, err := runObsPass(nil, 0, hash)
		if err != nil {
			return fmt.Errorf("obs-analytics: %w", err)
		}
		m[obsKey(hash)] = p.digest
	}
	return nil
}
