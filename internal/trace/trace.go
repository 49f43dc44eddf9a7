// Package trace records per-core power-state timelines from a simulation
// and replays them into an observability bus, whose Chrome trace-event
// export (load the JSON in chrome://tracing or https://ui.perfetto.dev)
// shows, per core, when it ran at which frequency and throttle level and
// when it idled — the phased schedules of the power-aware collectives
// become directly visible.
package trace

import (
	"fmt"
	"sort"

	"pacc/internal/obs"
	"pacc/internal/power"
	"pacc/internal/simtime"
)

// span is one interval of constant core state.
type span struct {
	core  int
	start simtime.Time
	end   simtime.Time
	state power.StateChange
}

// Recorder accumulates state changes from a set of cores.
type Recorder struct {
	station *power.Station
	// open holds the last state change per core (the currently open
	// interval).
	open  map[int]power.StateChange
	spans []span
	// coresPerNode groups core "threads" into node "processes" in the
	// exported trace.
	coresPerNode int
}

// Attach hooks every core of the station. coresPerNode controls the
// node grouping in the export (pass the topology's CoresPerNode).
func Attach(st *power.Station, coresPerNode int) *Recorder {
	if coresPerNode <= 0 {
		coresPerNode = 1
	}
	r := &Recorder{
		station:      st,
		open:         make(map[int]power.StateChange),
		coresPerNode: coresPerNode,
	}
	for _, c := range st.Cores() {
		core := c
		id := core.ID()
		core.SetRecorder(func(sc power.StateChange) {
			r.onChange(id, sc)
		})
	}
	return r
}

func (r *Recorder) onChange(core int, sc power.StateChange) {
	if prev, ok := r.open[core]; ok && sc.At > prev.At {
		r.closeSpan(core, prev, sc.At)
	}
	r.open[core] = sc
}

func (r *Recorder) closeSpan(core int, st power.StateChange, end simtime.Time) {
	if end <= st.At {
		return
	}
	r.spans = append(r.spans, span{core: core, start: st.At, end: end, state: st})
}

// snapshot returns the recorded spans plus the intervals still open at
// `now`, sorted by core and start time.
func (r *Recorder) snapshot(now simtime.Time) []span {
	out := make([]span, len(r.spans))
	copy(out, r.spans)
	for id, sc := range r.open {
		if now > sc.At {
			out = append(out, span{core: id, start: sc.At, end: now, state: sc})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].core != out[j].core {
			return out[i].core < out[j].core
		}
		return out[i].start < out[j].start
	})
	return out
}

func stateName(sc power.StateChange) string {
	act := "idle"
	if sc.Busy {
		act = "busy"
	}
	return fmt.Sprintf("%s %.1fGHz %v", act, sc.FreqGHz, sc.Throttle)
}

// ExportToBus replays all recorded power-state spans up to `now` into an
// observability bus, so the per-core power timeline interleaves with the
// MPI, network, and collective spans in one merged trace. Core threads
// share the node process used by the rank timelines; call once, at export
// time.
func (r *Recorder) ExportToBus(b *obs.Bus, now simtime.Time) {
	if b == nil {
		return
	}
	cores := r.station.Cores()
	if len(cores) == 0 {
		return
	}
	model := cores[0].Model()
	seen := map[int]bool{}
	for _, sp := range r.snapshot(now) {
		node := sp.core / r.coresPerNode
		t := obs.CoreTrack(node, sp.core)
		if !seen[sp.core] {
			seen[sp.core] = true
			b.SetThreadName(t, fmt.Sprintf("core %d", sp.core))
		}
		b.Span(t, stateName(sp.state), sp.start, sp.end, map[string]any{
			"watts":  model.CoreWatts(sp.state.FreqGHz, sp.state.Throttle, sp.state.Busy),
			"ghz":    sp.state.FreqGHz,
			"tstate": int(sp.state.Throttle),
			"busy":   sp.state.Busy,
		})
	}
}
