package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// A shared machine's speed drifts by tens of percent over minutes, and
// the benchmark's host timings with it. End-to-end timings are therefore
// normalised to a reference speed. A run interleaves a fixed kernel with
// its work, spending about calShare of the measured time on it, and
// multiplies every end-to-end timing by the kernel's reference time
// divided by its median time in the run. The kernel uses only the
// standard library: small allocations, map inserts and a sort, what the
// simulator's host time goes to besides scheduling. On sweep-closed,
// whose time also goes to file syncs, the kernel syncs files as well.
// It runs in the measured process, so it is kept apart from the
// program's state: the garbage of the work is collected first and the
// collector is off while the kernel runs, so that how much memory the
// simulator keeps live cannot pace a collection into the kernel and move
// the divisor.

// calRefSeconds is about the kernel's median time, one copy at a time,
// on the machine the benchmark was defined on (a shared 2-core Xeon VM,
// go1.24).
const calRefSeconds = 0.02

type calNode struct {
	key  int
	next *calNode
}

// calibrationKernel does a fixed amount of work and returns a value
// that depends on all of it, so none of it can be optimised away.
func calibrationKernel() int {
	x := uint64(1)
	sum := 0
	for rep := 0; rep < 2; rep++ {
		m := make(map[int]*calNode)
		var head *calNode
		for i := 0; i < 30000; i++ {
			head = &calNode{key: i, next: head}
			m[i*2654435761%1000003] = head
		}
		xs := make([]float64, 30000)
		for i := range xs {
			x = x*6364136223846793005 + 1442695040888963407
			xs[i] = float64(x >> 11)
		}
		sort.Float64s(xs)
		sum += len(m) + head.key + int(xs[len(xs)/2])
	}
	return sum
}

// calShare is the share of measured time spent calibrating, and
// calFirst how many calibrations precede the first unit of a run.
const (
	calShare = 0.1
	calFirst = 3
)

// calibrator times the calibration kernel between units of work.
type calibrator struct {
	// parallel is how many copies of the kernel run at once: the number
	// of goroutines the workload keeps busy, so that losing a CPU to a
	// neighbour slows the kernel as it slows the work.
	parallel int
	// syncs, for a workload whose time goes to file syncs as well as to
	// CPU, is how many files the kernel writes and syncs in dir after
	// its CPU work, so that a slower disk slows the kernel as it slows
	// the work.
	syncs   int
	dir     string
	samples []float64 // seconds per kernel run
	owed    float64   // calibration seconds due, see after
	sink    int       // keeps the kernels' results live
}

// syncRefSeconds is about the time to create, write 4 KiB to, sync and
// remove a file on the machine the benchmark was defined on.
const syncRefSeconds = 0.0004

// refSeconds is the kernel's reference time.
func (c *calibrator) refSeconds() float64 {
	return calRefSeconds + float64(c.syncs)*syncRefSeconds
}

// once times one run of the kernel, with the garbage of the work
// collected before it and the collector off during it.
func (c *calibrator) once() error {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := max(1, c.parallel)
	out := make([]int, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = calibrationKernel()
		}()
	}
	wg.Wait()
	for i := 0; i < c.syncs; i++ {
		if err := syncFile(c.dir); err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
	}
	c.samples = append(c.samples, time.Since(start).Seconds())
	for _, v := range out {
		c.sink += v
	}
	return nil
}

var syncBlock = make([]byte, 4096)

// syncFile creates a file in dir, writes syncBlock to it, syncs it and
// removes it.
func syncFile(dir string) error {
	f, err := os.CreateTemp(dir, "calsync-")
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(syncBlock)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// after calibrates after a unit of duration d, enough to keep the time
// spent calibrating at about calShare of the time measured.
func (c *calibrator) after(d time.Duration) error {
	c.owed += calShare * d.Seconds()
	for ref := c.refSeconds(); c.owed >= ref; c.owed -= ref {
		if err := c.once(); err != nil {
			return err
		}
	}
	return nil
}

// toReference is the factor that turns host seconds into reference-
// machine seconds: below 1 on a slower host.
func (c *calibrator) toReference() float64 {
	return c.refSeconds() / median(c.samples)
}

// The sweep service's set-up, OpenService and WaitReady on an empty
// directory, takes well under a millisecond, and about half of it is
// file-system metadata work (directories made and listed, a journal
// segment created). On a shared disk the latency of that work drifts by
// a factor of five over minutes, and the calibration kernel above does
// not see it; a set-up time divided by a disk kernel's time drifts
// almost as much, because the rest of set-up does not scale with the
// disk. So sweep-closed times a disk kernel, a standard-library copy of
// that metadata work, just before each set-up, and setupSamples replaces
// the kernel's time within each sample by diskRefSeconds: what is left
// is the service's own set-up work, any file-system work it does beyond
// the copy, and the copy's cost on a reference disk.

// diskRefSeconds is about the disk kernel's median time on the machine
// the benchmark was defined on, when its disk was quiet.
const diskRefSeconds = 0.0001

// diskKernelReps is how many cold starts one diskKernel sample times.
const diskKernelReps = 4

// diskKernel returns the mean time of diskKernelReps copies of the
// file-system work a sweep service does to start on an empty directory,
// each in a fresh subdirectory of parent that is removed after its
// timing.
func diskKernel(parent string) (time.Duration, error) {
	var total time.Duration
	for i := 0; i < diskKernelReps; i++ {
		dir, err := os.MkdirTemp(parent, "diskcal-")
		if err != nil {
			return 0, err
		}
		start := time.Now()
		err = coldStartFiles(dir)
		total += time.Since(start)
		os.RemoveAll(dir)
		if err != nil {
			return 0, err
		}
	}
	return total / diskKernelReps, nil
}

// coldStartFiles makes and lists the store and journal directories in
// dir and writes the header of a first journal segment, as
// sweep.OpenService does on an empty directory.
func coldStartFiles(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if _, err := os.ReadDir(dir); err != nil {
		return err
	}
	wal := filepath.Join(dir, "wal")
	if err := os.MkdirAll(wal, 0o755); err != nil {
		return err
	}
	if _, err := os.ReadDir(wal); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(wal, "seg"), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write([]byte("perfbench\n"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// setupSamples are the run's set-up samples in reference seconds: each
// host sample scaled by f, the calibration factor. Where disk kernel
// samples were taken, each set-up sample first has its paired disk
// kernel time taken out, and diskRefSeconds is added back.
func (r *run) setupSamples(f float64) []float64 {
	out := make([]float64, len(r.setup))
	for i, s := range r.setup {
		if r.setupDisk == nil {
			out[i] = f * s
		} else {
			out[i] = f*(s-r.setupDisk[i]) + diskRefSeconds
		}
	}
	return out
}
