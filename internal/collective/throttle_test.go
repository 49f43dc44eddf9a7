package collective

import (
	"bytes"
	"encoding/json"
	"testing"

	"pacc/internal/mpi"
	"pacc/internal/obs"
	"pacc/internal/power"
	"pacc/internal/topology"
	"pacc/internal/trace"
)

// TestPhasedThrottleLevels pins the §V-B T-state schedule of the
// shared-memory collectives on 64 ranks at 8 per node. Midway through
// each node leader's network phase the leader's socket runs at T4 and
// the other socket at T7; with CoreGranularThrottle the leader core runs
// at T0 and every other core at T7. After the call every core is back
// at T0.
func TestPhasedThrottleLevels(t *testing.T) {
	const size = 256 << 10
	calls := map[string]func(c *mpi.Comm, opt Options) error{
		"bcast":     func(c *mpi.Comm, opt Options) error { return Bcast(c, 0, size, opt) },
		"reduce":    func(c *mpi.Comm, opt Options) error { return Reduce(c, 0, size, opt) },
		"allgather": func(c *mpi.Comm, opt Options) error { return Allgather(c, size, opt) },
	}
	for name, call := range calls {
		for _, coreGranular := range []bool{false, true} {
			cfg := mpi.DefaultConfig()
			cfg.NProcs, cfg.PPN = 64, 8
			levels := throttleLevels(t, cfg, func(c *mpi.Comm) error {
				return call(c, Options{Power: Proposed, CoreGranularThrottle: coreGranular})
			})
			for _, lv := range levels {
				want := power.T7
				switch {
				case coreGranular && lv.leader:
					want = power.T0
				case !coreGranular && lv.leaderSocket:
					want = power.T4
				}
				if lv.got != want {
					t.Errorf("%s core-granular=%v: rank %d at %v in its leader's network phase, want %v",
						name, coreGranular, lv.rank, lv.got, want)
				}
			}
		}
	}
}

// rankLevel is one rank's core T-state midway through its node
// leader's network phase.
type rankLevel struct {
	rank                 int
	leader, leaderSocket bool
	got                  power.TState
}

// throttleLevels runs body on every rank with the core power timeline
// recorded, checks that every core ends at T0, and reports each rank's
// T-state at the midpoint of its node leader's network phase.
func throttleLevels(t *testing.T, cfg mpi.Config, body func(c *mpi.Comm) error) []rankLevel {
	t.Helper()
	w, err := mpi.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bus := obs.NewBus(w.Engine())
	w.AttachObs(bus)
	rec := trace.Attach(w.Station(), cfg.Topo.CoresPerNode())
	p := cfg.NProcs
	coreOf, nodeOf := make([]int, p), make([]int, p)
	socketOf := make([]topology.SocketID, p)
	w.Launch(func(r *mpi.Rank) {
		c := mpi.CommWorld(r)
		me := c.Rank()
		coreOf[me], nodeOf[me], socketOf[me] = r.Core().ID(), c.NodeOf(me), c.SocketOf(me)
		if err := body(c); err != nil {
			t.Error(err)
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for _, core := range w.Station().Cores() {
		if ts := core.Throttle(); ts != power.T0 {
			t.Fatalf("core %d left at %v after the call", core.ID(), ts)
		}
	}

	rec.ExportToBus(bus, w.Engine().Now())
	var buf bytes.Buffer
	if err := bus.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name    string         `json:"name"`
		Ph      string         `json:"ph"`
		Ts, Dur float64        // microseconds
		Tid     int            `json:"tid"`
		Args    map[string]any `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	type span struct {
		start, end float64
		tstate     power.TState
	}
	powerSpans := map[int][]span{} // by global core id
	netMid := map[int]float64{}    // by rank
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		if ts, ok := ev.Args["tstate"].(float64); ok {
			powerSpans[ev.Tid] = append(powerSpans[ev.Tid], span{ev.Ts, ev.Ts + ev.Dur, power.TState(ts)})
		} else if ev.Name == "phase "+PhaseNetwork && ev.Tid >= obs.TIDRankBase {
			netMid[ev.Tid-obs.TIDRankBase] = ev.Ts + ev.Dur/2
		}
	}
	stateAt := func(core int, at float64) power.TState {
		for _, sp := range powerSpans[core] {
			if sp.start <= at && at < sp.end {
				return sp.tstate
			}
		}
		t.Fatalf("core %d has no power span at %.3fus", core, at)
		return 0
	}

	leaderOf := map[int]int{} // node -> lowest rank on it
	for r := p - 1; r >= 0; r-- {
		leaderOf[nodeOf[r]] = r
	}
	var out []rankLevel
	for r := 0; r < p; r++ {
		l := leaderOf[nodeOf[r]]
		mid, ok := netMid[l]
		if !ok {
			t.Fatalf("leader rank %d has no network phase span", l)
		}
		out = append(out, rankLevel{
			rank:         r,
			leader:       r == l,
			leaderSocket: socketOf[r] == socketOf[l],
			got:          stateAt(coreOf[r], mid),
		})
	}
	return out
}
