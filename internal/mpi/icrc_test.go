package mpi

import (
	"errors"
	"strings"
	"testing"

	"pacc/internal/fault"
	"pacc/internal/obs"
	"pacc/internal/simtime"
)

// TestCorruptionRetransmitDelivers: an in-flight bit flip never reaches
// the application — the ICRC rejects the payload, the sender retransmits
// under the budget, and the values arrive intact on every lane.
// Corruption costs time, and the run replays identically.
func TestCorruptionRetransmitDelivers(t *testing.T) {
	const bytes = 64 << 10 // rendezvous, so the data leg is in play
	sent := []float64{42.5, -3}
	for _, lanes := range []int{1, 2} {
		elapsedWith := func(spec *fault.Spec) (simtime.Duration, []float64) {
			cfg := testConfig()
			cfg.Fault = spec
			w := mustWorld(t, cfg)
			var got []float64
			w.Launch(func(r *Rank) {
				c := CommWorld(r)
				switch r.ID() {
				case 0:
					if err := c.SendValues(2, bytes, 1, sent[:lanes]...); err != nil {
						t.Error(err)
					}
				case 2:
					vs, err := c.RecvValues(0, bytes, 1, lanes)
					if err != nil {
						t.Error(err)
					}
					got = append(got, vs...)
				}
			})
			d, err := w.Run()
			if err != nil {
				t.Fatal(err)
			}
			return d, got
		}
		clean, v0 := elapsedWith(nil)
		spec := &fault.Spec{Seed: 4, DataCorrupt: 0.9, RetryBudget: 30,
			AckTimeout: 50 * simtime.Microsecond}
		slow, v1 := elapsedWith(spec)
		for _, got := range [][]float64{v0, v1} {
			if len(got) != lanes {
				t.Fatalf("lanes=%d: received %v", lanes, got)
			}
			for l := range got {
				if got[l] != sent[l] {
					t.Fatalf("lanes=%d: payload changed end-to-end: %v, want %v", lanes, got, sent[:lanes])
				}
			}
		}
		if slow <= clean {
			t.Fatalf("lanes=%d: 90%% data corruption did not slow the transfer: %v vs clean %v", lanes, slow, clean)
		}
		if again, _ := elapsedWith(spec); again != slow {
			t.Fatalf("lanes=%d: same spec+seed gave %v then %v", lanes, slow, again)
		}
	}
}

// TestCorruptExhaustionTypedError: when every attempt of a message is
// ICRC-rejected the run aborts with a structured IntegrityError naming
// the message class, endpoints, attempt count, and the reject — and the
// NACKed flows leave no unbalanced spans behind (only the deadlocked
// rank tracks are excused).
func TestCorruptExhaustionTypedError(t *testing.T) {
	cfg := testConfig()
	cfg.Fault = &fault.Spec{Seed: 2, DataCorrupt: 1, RetryBudget: 3,
		AckTimeout: 50 * simtime.Microsecond}
	w := mustWorld(t, cfg)
	bus := obs.NewBus(w.Engine())
	w.AttachObs(bus)
	const bytes = 64 << 10
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(2, bytes, 1)
		case 2:
			r.Recv(0, bytes, 1)
		}
	})
	_, err := w.Run()
	if err == nil {
		t.Fatal("run with every data attempt corrupted terminated cleanly")
	}
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("error %v does not wrap an IntegrityError", err)
	}
	if ie.Class != fault.Data || ie.Src != 0 || ie.Dst != 2 {
		t.Fatalf("error names %v %d→%d, want data 0→2", ie.Class, ie.Src, ie.Dst)
	}
	if ie.Attempts != 3 || !ie.Corrupted {
		t.Fatalf("attempts/corrupted = %d/%v, want 3/true", ie.Attempts, ie.Corrupted)
	}
	if !IsIntegrity(err) {
		t.Fatal("exhaustion error not classified by IsIntegrity")
	}
	if msg := err.Error(); !strings.Contains(msg, "icrc reject") {
		t.Errorf("error %q does not name the icrc reject", msg)
	}
	if n := bus.Counter(obs.CtrFaultMsgNacks); n != 3 {
		t.Errorf("NACK counter = %d, want 3 (one per rejected attempt)", n)
	}
	rankTrack := map[obs.Track]bool{}
	for i := 0; i < w.Size(); i++ {
		rankTrack[w.Rank(i).ObsTrack()] = true
	}
	if open := bus.UnbalancedAsyncs(func(tr obs.Track) bool { return rankTrack[tr] }); len(open) != 0 {
		t.Fatalf("unbalanced non-rank spans after exhaustion: %v", open)
	}
}

// TestSendRecvValuesLanes: the multi-lane wire board carries several
// payload lanes on one simulated message, in order, without perturbing
// the message schedule — the substrate the checked collectives ride
// their checksum shadow on.
func TestSendRecvValuesLanes(t *testing.T) {
	var oneLane, twoLane simtime.Duration
	for _, lanes := range []int{1, 2} {
		lanes := lanes
		w := mustWorld(t, testConfig())
		w.Launch(func(r *Rank) {
			c := CommWorld(r)
			switch r.ID() {
			case 0:
				vs := []float64{3.25, -8}[:lanes]
				if err := c.SendValues(2, 2048, 5, vs...); err != nil {
					t.Error(err)
				}
			case 2:
				got, err := c.RecvValues(0, 2048, 5, lanes)
				if err != nil {
					t.Fatal(err)
				}
				want := []float64{3.25, -8}[:lanes]
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("lane %d: got %v, want %v", i, got[i], want[i])
					}
				}
			}
		})
		d, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		if lanes == 1 {
			oneLane = d
		} else {
			twoLane = d
		}
	}
	if oneLane != twoLane {
		t.Fatalf("extra lane changed the schedule: %v vs %v", oneLane, twoLane)
	}
}
