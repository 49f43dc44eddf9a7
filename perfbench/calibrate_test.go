package main

import (
	"math"
	"os"
	"runtime/debug"
	"testing"
)

func TestSetupSamplesScaleByCPUFactor(t *testing.T) {
	r := &run{setup: []float64{0.010, 0.020}}
	got := r.setupSamples(0.5)
	if got[0] != 0.005 || got[1] != 0.010 {
		t.Errorf("setupSamples(0.5) = %v, want [0.005 0.01]", got)
	}
}

func TestSetupSamplesReplaceDiskKernelTime(t *testing.T) {
	r := &run{setup: []float64{0.0005, 0.0009}, setupDisk: []float64{0.0002, 0.0006}}
	for i, v := range r.setupSamples(2) {
		if want := 2*0.0003 + diskRefSeconds; math.Abs(v-want) > 1e-12 {
			t.Errorf("sample %d = %g, want %g", i, v, want)
		}
	}
}

func TestDiskKernelCleansUp(t *testing.T) {
	dir := t.TempDir()
	d, err := diskKernel(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("disk kernel took %v", d)
	}
	if left, _ := os.ReadDir(dir); len(left) != 0 {
		t.Errorf("disk kernel left %d entries behind", len(left))
	}
}

func TestCalibrationRestoresGCPercent(t *testing.T) {
	var c calibrator
	if err := c.once(); err != nil {
		t.Fatal(err)
	}
	if len(c.samples) != 1 || c.samples[0] <= 0 {
		t.Fatalf("samples %v", c.samples)
	}
	if old := debug.SetGCPercent(100); old != 100 {
		t.Errorf("GC percent after calibrating is %d, want 100", old)
	}
}

func TestCalibrationSyncsFilesAndCleansUp(t *testing.T) {
	c := calibrator{syncs: 3, dir: t.TempDir()}
	if err := c.once(); err != nil {
		t.Fatal(err)
	}
	if left, _ := os.ReadDir(c.dir); len(left) != 0 {
		t.Errorf("calibration left %d files behind", len(left))
	}
	if got, want := c.refSeconds(), calRefSeconds+3*syncRefSeconds; got != want {
		t.Errorf("refSeconds = %g, want %g", got, want)
	}
}
