package pacc

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
)

func TestFacadeTopoAwareAndWaitAll(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Net.NodesPerRack = 4
	cfg.Net.RackUplinkBytesPerSec = cfg.Net.LinkBytesPerSec
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Launch(func(r *Rank) {
		c := CommWorld(r)
		ScatterTopoAware(c, 0, 32<<10, CollectiveOptions{Power: Proposed})
		GatherTopoAware(c, 0, 32<<10, CollectiveOptions{})
		BcastTopoAware(c, 0, 32<<10, CollectiveOptions{})
		// WaitAll over explicit requests.
		if r.ID() == 0 {
			q := r.Isend(8, 1024, 99)
			WaitAll(q, nil)
		}
		if r.ID() == 8 {
			r.Recv(0, 1024, 99)
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if w.Fabric().InterRackBytes() == 0 {
		t.Fatal("rack fabric saw no inter-rack traffic")
	}
	if w.Stats().Messages() == 0 {
		t.Fatal("message stats empty")
	}
}

func TestFacadeConfigPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	cfg := DefaultConfig()
	cfg.PowerAwareP2P = true
	cfg.Net.LinkPower = DefaultLinkPower()
	if err := SaveConfig(path, cfg); err != nil {
		t.Fatal(err)
	}
	back, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.PowerAwareP2P || !back.Net.LinkPower.Enabled() {
		t.Fatalf("round trip lost extension fields: %+v", back.Net.LinkPower)
	}
}

// TestFacadeTraceRecorder: the observability session's merged trace
// carries the per-core power timeline, including the §V-B leader-socket
// T4 and idle-socket T7 levels of a Proposed broadcast.
func TestFacadeTraceRecorder(t *testing.T) {
	cfg, err := ClusterFor(16)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sess := AttachObs(w)
	w.Launch(func(r *Rank) {
		Bcast(CommWorld(r), 0, 256<<10, CollectiveOptions{Power: Proposed})
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sess.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	tstates := map[float64]bool{}
	for _, ev := range events {
		if args, ok := ev["args"].(map[string]any); ok && ev["ph"] == "X" {
			if ts, ok := args["tstate"].(float64); ok {
				tstates[ts] = true
			}
		}
	}
	if !tstates[4] || !tstates[7] {
		t.Fatalf("power spans cover T-states %v, want T4 and T7", tstates)
	}
}

func TestFacadeNASApp(t *testing.T) {
	for _, name := range []string{"ft.A", "is.B", "cg.A", "mg.A"} {
		app, err := NASApp(name)
		if err != nil || app.Name != name {
			t.Fatalf("NASApp(%q) = %q, %v", name, app.Name, err)
		}
	}
	if _, err := NASApp("lu.C"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	// And one runs end to end through the facade.
	cfg, err := ClusterFor(16)
	if err != nil {
		t.Fatal(err)
	}
	app, err := NASApp("cg.A")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunApp(app, cfg, NoPower)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Elapsed <= 0 || rep.CommEnergyFraction() <= 0 {
		t.Fatalf("degenerate report: %+v", rep)
	}
}
