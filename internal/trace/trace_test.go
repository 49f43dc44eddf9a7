package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pacc/internal/collective"
	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/power"
	"pacc/internal/simtime"
)

// exportEvents replays the recorder into b (a fresh bus when nil) and
// returns the bus's Chrome-trace export decoded.
func exportEvents(t *testing.T, rec *Recorder, b *obs.Bus, eng *simtime.Engine) []map[string]any {
	t.Helper()
	if b == nil {
		b = obs.NewBus(eng)
	}
	rec.ExportToBus(b, eng.Now())
	var buf bytes.Buffer
	if err := b.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	return events
}

func TestRecorderSpans(t *testing.T) {
	eng := simtime.NewEngine()
	st := power.NewStation(eng, power.DefaultModel(), 1, 2)
	rec := Attach(st, 2)
	eng.Spawn("driver", func(p *simtime.Proc) {
		c := st.Core(0)
		c.SetBusy(true)
		p.Sleep(simtime.Millisecond)
		c.SetFreq(1.6)
		p.Sleep(simtime.Millisecond)
		c.SetThrottle(power.T7)
		p.Sleep(simtime.Millisecond)
		c.SetBusy(false)
	})
	if _, err := eng.Run(simtime.Infinity); err != nil {
		t.Fatal(err)
	}
	// Core 0: initial idle (zero-length at t=0 is dropped), busy@fmax,
	// busy@fmin, busy@fmin/T7 — three closed spans.
	if got := len(rec.spans); got != 3 {
		t.Fatalf("spans = %d, want 3", got)
	}
	spans := rec.snapshot(eng.Now())
	// Snapshot adds core 1's full idle interval; core 0's final idle
	// state is zero-length (the run ends at that instant) and is
	// dropped.
	if len(spans) != 4 {
		t.Fatalf("snapshot spans = %d, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		a, b := spans[i-1], spans[i]
		if a.core == b.core && a.end > b.start {
			t.Fatalf("overlapping spans on core %d", a.core)
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	cfg := mpi.DefaultConfig()
	cfg.NProcs = 16
	cfg.PPN = 8
	cfg.Topo.Nodes = 2
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := Attach(w.Station(), cfg.Topo.CoresPerNode())
	w.Launch(func(r *mpi.Rank) {
		collective.Alltoall(mpi.CommWorld(r), 64<<10, collective.Options{Power: collective.Proposed})
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	events := exportEvents(t, rec, nil, w.Engine())
	if len(events) < 50 {
		t.Fatalf("only %d events; a proposed alltoall should produce many state changes", len(events))
	}
	var sawT7, sawFmin, sawMeta bool
	for _, ev := range events {
		name, _ := ev["name"].(string)
		switch {
		case name == "thread_name":
			sawMeta = true
		case strings.Contains(name, "T7"):
			sawT7 = true
		}
		if strings.Contains(name, "1.6GHz") {
			sawFmin = true
		}
		if ph, _ := ev["ph"].(string); ph == "X" {
			if ev["dur"] == nil {
				t.Fatalf("complete event without duration: %v", ev)
			}
		}
	}
	if !sawMeta {
		t.Error("no thread metadata events")
	}
	if !sawT7 {
		t.Error("proposed alltoall should show T7 intervals")
	}
	if !sawFmin {
		t.Error("proposed alltoall should show fmin intervals")
	}
}

func TestAttachZeroCoresPerNode(t *testing.T) {
	eng := simtime.NewEngine()
	st := power.NewStation(eng, power.DefaultModel(), 1, 1)
	rec := Attach(st, 0) // must not divide by zero on export
	eng.Spawn("driver", func(p *simtime.Proc) {
		st.Core(0).SetBusy(true)
		p.Sleep(simtime.Millisecond)
	})
	if _, err := eng.Run(simtime.Infinity); err != nil {
		t.Fatal(err)
	}
	for _, ev := range exportEvents(t, rec, nil, eng) {
		if ev["pid"].(float64) != 0 {
			t.Fatalf("core 0 exported outside node 0: %v", ev)
		}
	}
}

func TestExportZeroCoreStation(t *testing.T) {
	eng := simtime.NewEngine()
	st := power.NewStation(eng, power.DefaultModel(), 0, 0)
	rec := Attach(st, 1)
	if events := exportEvents(t, rec, nil, eng); len(events) != 0 {
		t.Fatalf("zero-core export has %d events, want 0", len(events))
	}
}

func TestSnapshotBeforeFirstStateChange(t *testing.T) {
	eng := simtime.NewEngine()
	st := power.NewStation(eng, power.DefaultModel(), 1, 2)
	rec := Attach(st, 2)
	// No state change has happened; both cores still hold their initial
	// zero-length open interval at t=0, which a snapshot at t=0 drops.
	if spans := rec.snapshot(eng.Now()); len(spans) != 0 {
		t.Fatalf("snapshot before any state change = %d spans, want 0", len(spans))
	}
	if events := exportEvents(t, rec, nil, eng); len(events) != 0 {
		t.Fatalf("pristine export has %d events, want 0", len(events))
	}
}

// TestProcessNameMetadata: merged into a job's bus, each core's power
// timeline lands in the "node N" process of the node hosting it.
func TestProcessNameMetadata(t *testing.T) {
	cfg := mpi.DefaultConfig()
	cfg.NProcs = 16
	cfg.PPN = 8
	cfg.Topo.Nodes = 2
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus(w.Engine())
	w.AttachObs(bus)
	cpn := cfg.Topo.CoresPerNode()
	rec := Attach(w.Station(), cpn)
	w.Launch(func(r *mpi.Rank) {
		collective.Barrier(mpi.CommWorld(r))
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	names := map[int]string{}
	powerPIDs := map[int]bool{}
	for _, ev := range exportEvents(t, rec, bus, w.Engine()) {
		pid := int(ev["pid"].(float64))
		if ev["name"] == "process_name" {
			names[pid] = ev["args"].(map[string]any)["name"].(string)
			continue
		}
		args, _ := ev["args"].(map[string]any)
		if _, isPower := args["tstate"]; !isPower {
			continue
		}
		if core := int(ev["tid"].(float64)); pid != core/cpn {
			t.Fatalf("core %d power span in process %d, want %d", core, pid, core/cpn)
		}
		powerPIDs[pid] = true
	}
	if names[0] != "node 0" || names[1] != "node 1" {
		t.Fatalf("process_name metadata = %v, want node 0 and node 1", names)
	}
	if !powerPIDs[0] || !powerPIDs[1] {
		t.Fatalf("power spans on processes %v, want both nodes", powerPIDs)
	}
}
