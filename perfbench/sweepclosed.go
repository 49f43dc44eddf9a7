package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pacc/internal/sweep"
)

// The sweep-closed workload: a closed loop of sweepClients clients, each
// submitting one request and waiting for its ticket before the next,
// against an in-process service with sweepWorkers workers on a fresh
// store and journal. A unit is one batch of sweepBatch requests on its
// own fresh service.
const (
	sweepClients = 2
	sweepWorkers = 2
	sweepBatch   = 48
	// sweepCalSyncs is how many file syncs the calibration kernel adds
	// to its CPU work: a batch's time grows by about that many sync
	// times when the disk slows, on the machine the benchmark was
	// defined on.
	sweepCalSyncs = 24
)

// sweepGrid is the request space: 16-rank collectives, ops x sizes
// 1K-64K x the three power modes.
var sweepGrid = sweep.Grid{
	Tenant: "bench",
	Ops:    []string{"allreduce", "allgather", "alltoall", "bcast", "reduce", "gather"},
	Sizes:  []int64{1 << 10, 4 << 10, 16 << 10, 64 << 10},
	Modes:  []string{"no-power", "freq-scaling", "proposed"},
	Procs:  16,
	PPN:    8,
}.Expand()

// batchRequests draws batch b's request sequence from the seed. About a
// third of the requests repeat a cell drawn earlier in the batch; the
// rest are distinct cells. It returns the sequence and its distinct
// cell count.
func batchRequests(seed uint64, b int) ([]sweep.Request, int) {
	rng := rand.New(rand.NewPCG(seed, uint64(b)))
	perm := rng.Perm(len(sweepGrid))
	reqs := make([]sweep.Request, 0, sweepBatch)
	distinct := 0
	for len(reqs) < sweepBatch {
		if len(reqs) > 0 && rng.IntN(3) == 0 {
			reqs = append(reqs, reqs[rng.IntN(len(reqs))])
			continue
		}
		reqs = append(reqs, sweepGrid[perm[distinct]])
		distinct++
	}
	return reqs, distinct
}

// sweepRefs computes every grid cell's payload with a serial
// sweep.Simulate: the reference each served payload must equal byte for
// byte. It also returns the digest of all reference payloads.
func sweepRefs() (map[sweep.Key][]byte, string, error) {
	refs := make(map[sweep.Key][]byte, len(sweepGrid))
	d := newDigest()
	for _, req := range sweepGrid {
		payload, err := sweep.Simulate(context.Background(), req)
		if err != nil {
			return nil, "", fmt.Errorf("sweep-closed reference %s %d %s: %w", req.Op, req.Bytes, req.Mode, err)
		}
		refs[req.Key()] = payload
		d.str(string(payload))
	}
	return refs, d.sum(), nil
}

const sweepGoldenKey = "sweep-closed/grid"

// sweepClosed runs batches until the budget is spent; an op is one
// request.
func sweepClosed(r *run) error {
	refs, sum, err := sweepRefs()
	if err != nil {
		return err
	}
	if !matchGolden(sweepGoldenKey, sum) {
		return fmt.Errorf("sweep-closed: reference payloads digest %s, want %s", sum, golden[sweepGoldenKey])
	}
	r.cal.parallel = sweepWorkers
	r.cal.syncs, r.cal.dir = sweepCalSyncs, r.outDir
	batch := 0
	return r.measure(func(traced bool) (time.Duration, error) {
		reqs, distinct := batchRequests(r.seed, batch)
		batch++
		return r.sweepBatch(refs, reqs, distinct, traced)
	})
}

// execTimes records when each key's execution ran inside the service.
type execTimes struct {
	mu         sync.Mutex
	start, end map[sweep.Key]time.Time
}

// sweepBatch serves one batch on a fresh service and returns the host
// time from the first submission to the last resolution.
func (r *run) sweepBatch(refs map[sweep.Key][]byte, reqs []sweep.Request, distinct int, traced bool) (time.Duration, error) {
	dir, err := os.MkdirTemp(r.outDir, "sweep-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)

	spans := r.spans
	unit := spans.open(0, "sweep-closed.batch", time.Now())
	defer func() { spans.close(unit, time.Now()) }()
	ex := &execTimes{start: map[sweep.Key]time.Time{}, end: map[sweep.Key]time.Time{}}
	cfg := sweep.Config{Workers: sweepWorkers, Run: func(ctx context.Context, req sweep.Request) ([]byte, error) {
		start := time.Now()
		id := spans.open(unit, "sweep.Simulate", start)
		payload, err := sweep.Simulate(ctx, req)
		end := time.Now()
		spans.close(id, end)
		ex.mu.Lock()
		ex.start[req.Key()], ex.end[req.Key()] = start, end
		ex.mu.Unlock()
		return payload, err
	}}

	var disk time.Duration
	if !traced {
		if disk, err = diskKernel(r.outDir); err != nil {
			return 0, err
		}
		if err := resetPeakMem(); err != nil {
			return 0, err
		}
	}
	ctx := context.Background()
	var svc *sweep.Service
	setup := spans.timed(unit, "sweep.OpenService", func() {
		if svc, err = sweep.OpenService(dir, cfg); err == nil {
			err = svc.WaitReady(ctx)
		}
	})
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	rep, err := svc.RecoveryReport(ctx)
	if err != nil {
		return 0, err
	}
	if rep.Journal.Records != 0 || rep.Scavenge.Kept != 0 {
		return 0, fmt.Errorf("sweep-closed: service did not start cold (%d journal records, %d store entries)",
			rep.Journal.Records, rep.Scavenge.Kept)
	}

	// accepted is when each key's first submission returned; waited is
	// when that submitter's ticket resolved.
	accepted := make([]time.Time, len(reqs))
	waited := make([]time.Time, len(reqs))
	latency := make([]float64, len(reqs))
	submit := make([]float64, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < sweepClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				req := reqs[i]
				t0 := time.Now()
				var tk *sweep.Ticket
				var err error
				submitDur := spans.timed(unit, "sweep.Service.Submit", func() { tk, err = svc.Submit(req) })
				accepted[i] = t0.Add(submitDur)
				var payload []byte
				if err == nil {
					spans.timed(unit, "sweep.Ticket.Wait", func() { payload, err = tk.Wait(ctx) })
				}
				waited[i] = time.Now()
				latency[i] = waited[i].Sub(t0).Seconds()
				submit[i] = submitDur.Seconds()
				want := refs[req.Key()]
				r.op(err == nil && bytes.Equal(payload, want), "sweep-closed %s %d %s: err %v, payload matches reference: %v",
					req.Op, req.Bytes, req.Mode, err, bytes.Equal(payload, want))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	// Cold-state guard: with an empty store every distinct cell must
	// execute at least once.
	executions := svc.Bus().Counter(sweep.CtrExecutions)
	if executions < int64(distinct) {
		return 0, fmt.Errorf("sweep-closed: %d executions for %d distinct cells: the store was not empty",
			executions, distinct)
	}
	if !traced {
		peak, err := peakMemMB()
		if err != nil {
			return 0, err
		}
		r.peakMem = append(r.peakMem, peak)
		r.setup = append(r.setup, setup.Seconds())
		r.setupDisk = append(r.setupDisk, disk.Seconds())
		r.latency = append(r.latency, latency...)
		r.opsTime += wall
		return wall, nil
	}

	// Per-execution queue wait and resolve time, against the first
	// submission of each key (the one that caused the execution).
	first := map[sweep.Key]int{}
	for i, req := range reqs {
		if _, ok := first[req.Key()]; !ok {
			first[req.Key()] = i
		}
	}
	ex.mu.Lock()
	defer ex.mu.Unlock()
	var queueWait, resolve []float64
	for k, i := range first {
		s, ok := ex.start[k]
		if !ok {
			continue
		}
		queueWait = append(queueWait, max(0, s.Sub(accepted[i]).Seconds()))
		resolve = append(resolve, max(0, waited[i].Sub(ex.end[k]).Seconds()))
	}
	var execs []float64
	for k, s := range ex.start {
		execs = append(execs, ex.end[k].Sub(s).Seconds())
	}
	r.sample("sweep.submit_ms_p50", 1e3*median(submit))
	r.sample("sweep.submit_ms_p99", 1e3*percentile(submit, 99))
	r.sample("sweep.queue_wait_ms_p50", 1e3*median(queueWait))
	r.sample("sweep.exec_ms_p50", 1e3*median(execs))
	r.sample("sweep.resolve_ms_p50", 1e3*median(resolve))
	r.sample("sweep.dedupe_hit_rate", svc.DedupeHitRate())
	r.sample("sweep.executions", float64(executions))

	// Restart: reopen the batch's own journal and time its replay.
	svc.Close()
	var again *sweep.Service
	replay := spans.timed(unit, "sweep.OpenService(replay)", func() {
		if again, err = sweep.OpenService(dir, sweep.Config{Workers: sweepWorkers}); err == nil {
			err = again.WaitReady(ctx)
		}
	})
	if err != nil {
		return 0, err
	}
	again.Close()
	r.sample("sweep.replay_s", replay.Seconds())
	return wall, nil
}

// sweepGolden records the reference digest of the grid's payloads.
func sweepGolden(m map[string]string) error {
	_, sum, err := sweepRefs()
	m[sweepGoldenKey] = sum
	return err
}
