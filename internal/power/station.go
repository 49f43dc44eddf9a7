package power

import (
	"sort"

	"pacc/internal/simtime"
)

// Station aggregates the cores of a cluster into one measurable power
// domain, the way the paper's clamp meter saw the whole testbed.
type Station struct {
	eng   *simtime.Engine
	model *Model
	cores []*Core
	nodes int
}

// NewStation creates per-core trackers for a cluster of nodes×coresPerNode
// cores.
func NewStation(eng *simtime.Engine, m *Model, nodes, coresPerNode int) *Station {
	s := &Station{eng: eng, model: m, nodes: nodes}
	total := nodes * coresPerNode
	s.cores = make([]*Core, total)
	for i := range s.cores {
		s.cores[i] = NewCore(eng, m, i)
	}
	return s
}

// Core returns the tracker for the given global core index.
func (s *Station) Core(global int) *Core { return s.cores[global] }

// Cores returns all core trackers in global order.
func (s *Station) Cores() []*Core { return s.cores }

// NumNodes returns the node count of the domain.
func (s *Station) NumNodes() int { return s.nodes }

// Now returns the current virtual time of the station's engine.
func (s *Station) Now() simtime.Time { return s.eng.Now() }

// Watts returns the instantaneous draw of the whole cluster: all cores
// plus the per-node base power.
func (s *Station) Watts() float64 {
	w := float64(s.nodes) * s.model.NodeBaseWatts
	for _, c := range s.cores {
		w += c.Watts()
	}
	return w
}

// EnergyJoules returns cluster energy consumed up to now: the integral of
// core power plus node base power over elapsed time.
func (s *Station) EnergyJoules() float64 {
	j := float64(s.nodes) * s.model.NodeBaseWatts * s.eng.Now().Seconds()
	for _, c := range s.cores {
		j += c.EnergyJoules()
	}
	return j
}

// ResetEnergy zeroes all core counters. Node base energy is derived from
// the clock, so callers measuring intervals should subtract readings
// instead; ResetEnergy is for reusing a station across experiments.
func (s *Station) ResetEnergy() {
	for _, c := range s.cores {
		c.ResetEnergy()
	}
}

// Sample is one power-meter reading.
type Sample struct {
	At    simtime.Time
	Watts float64
}

// Meter samples a station's aggregate power on a fixed virtual-time grid,
// standing in for the paper's MASTECH MS2205 clamp meter (0.5 s interval).
type Meter struct {
	station  *Station
	interval simtime.Duration
	samples  []Sample
	running  bool
	sources  []func() float64
}

// AddSource includes an extra instantaneous-watts contribution (e.g. the
// network fabric's port power) in every subsequent sample.
func (m *Meter) AddSource(fn func() float64) {
	m.sources = append(m.sources, fn)
}

// NewMeter creates a meter with the given sampling interval.
func NewMeter(s *Station, interval simtime.Duration) *Meter {
	if interval <= 0 {
		interval = 500 * simtime.Millisecond
	}
	return &Meter{station: s, interval: interval}
}

// Start begins sampling at the current time. Each tick reads the station
// and schedules the next tick, so sampling continues as long as the
// simulation generates events; Stop ends it.
func (m *Meter) Start() {
	if m.running {
		return
	}
	m.running = true
	var tick func()
	tick = func() {
		if !m.running {
			return
		}
		w := m.station.Watts()
		for _, src := range m.sources {
			w += src()
		}
		m.samples = append(m.samples, Sample{At: m.station.eng.Now(), Watts: w})
		m.station.eng.After(m.interval, tick)
	}
	m.station.eng.At(m.station.eng.Now(), tick)
}

// Stop ends sampling after the current tick.
func (m *Meter) Stop() { m.running = false }

// Samples returns the collected readings in time order.
func (m *Meter) Samples() []Sample { return m.samples }

// MeanWatts returns the average of all samples (0 if none).
func (m *Meter) MeanWatts() float64 {
	if len(m.samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range m.samples {
		sum += s.Watts
	}
	return sum / float64(len(m.samples))
}

// Ledger attributes energy (and busy time) to named phases, so workloads
// can report how much of their energy went to, say, MPI_Alltoall. Each
// phase's energy is additionally split by the power state it was drawn
// in (JoulesByState), the phase × power-state attribution the analytics
// layer aggregates.
type Ledger struct {
	current string
	joules  map[string]float64
	seconds map[string]float64
	byState map[string]map[StateKey]float64
}

// NewLedger returns a ledger with the phase label set to "init".
func NewLedger() *Ledger {
	return &Ledger{
		current: "init",
		joules:  make(map[string]float64),
		seconds: make(map[string]float64),
		byState: make(map[string]map[StateKey]float64),
	}
}

// SetPhase labels all subsequent accruals. Cores flush their pending
// interval on their next state change, so call SetPhase only at points
// where the cores' states are also changing (phase boundaries), or accept
// attribution at state-change granularity.
func (l *Ledger) SetPhase(name string) { l.current = name }

// Phase returns the current label.
func (l *Ledger) Phase() string { return l.current }

func (l *Ledger) add(j, secs float64, st StateKey) {
	l.joules[l.current] += j
	l.seconds[l.current] += secs
	m := l.byState[l.current]
	if m == nil {
		m = make(map[StateKey]float64)
		l.byState[l.current] = m
	}
	m[st] += j
}

// Joules returns the energy attributed to a phase.
func (l *Ledger) Joules(phase string) float64 { return l.joules[phase] }

// JoulesByState returns a phase's energy split by the power state it was
// drawn in, as (state, joules) pairs sorted like Core.Residencies. The
// pairs sum to Joules(phase).
func (l *Ledger) JoulesByState(phase string) []StateJoules {
	m := l.byState[phase]
	out := make([]StateJoules, 0, len(m))
	for k, j := range m {
		out = append(out, StateJoules{State: k, Joules: j})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].State, out[j].State
		if a.FreqGHz != b.FreqGHz {
			return a.FreqGHz < b.FreqGHz
		}
		if a.Throttle != b.Throttle {
			return a.Throttle < b.Throttle
		}
		return !a.Busy && b.Busy
	})
	return out
}

// StateJoules is one entry of a phase's per-power-state energy split.
type StateJoules struct {
	State  StateKey
	Joules float64
}

// CoreSeconds returns the total core-time attributed to a phase.
func (l *Ledger) CoreSeconds(phase string) float64 { return l.seconds[phase] }

// Phases returns all labels seen, sorted.
func (l *Ledger) Phases() []string {
	out := make([]string, 0, len(l.joules))
	for k := range l.joules {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TotalJoules sums energy across phases.
func (l *Ledger) TotalJoules() float64 {
	sum := 0.0
	for _, j := range l.joules {
		sum += j
	}
	return sum
}
