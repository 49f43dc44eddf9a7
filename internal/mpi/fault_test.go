package mpi

import (
	"errors"
	"strings"
	"testing"

	"pacc/internal/fault"
	"pacc/internal/simtime"
)

// TestIsendIrecvArgErrors: invalid arguments at the public API surface
// come back as errored requests, not panics (satellite: API hardening).
func TestIsendIrecvArgErrors(t *testing.T) {
	w := mustWorld(t, testConfig())
	w.Launch(func(r *Rank) {
		if r.ID() != 0 {
			return
		}
		cases := []*Request{
			r.Isend(99, 16, 1), // rank out of range
			r.Isend(-1, 16, 1), // negative rank
			r.Isend(1, -5, 1),  // negative size
			r.Irecv(99, 16, 1), // rank out of range
			r.Irecv(1, -5, 1),  // negative size
		}
		for i, q := range cases {
			if q.Err() == nil {
				t.Errorf("case %d: no error", i)
			}
			q.Wait() // must be a no-op, not a hang or panic
		}
		if err := r.Send(99, 16, 1); err == nil || !strings.Contains(err.Error(), "invalid rank") {
			t.Errorf("Send to invalid rank: err = %v", err)
		}
		if err := r.Recv(-3, 16, 1); err == nil {
			t.Error("Recv from negative rank accepted")
		}
		if err := r.SendRecv(99, 16, -7, 16, 1); err == nil {
			t.Error("SendRecv with invalid peers accepted")
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestConfigValidateFaultKnobs: the MPI config validates its fault spec
// against the job, not just in isolation (satellite: validation).
func TestConfigValidateFaultKnobs(t *testing.T) {
	cases := []struct {
		name string
		spec *fault.Spec
		ok   bool
	}{
		{"nil spec", nil, true},
		{"benign loss", &fault.Spec{Seed: 1, EagerLoss: 0.1, RetryBudget: 7}, true},
		{"loss above one", &fault.Spec{Seed: 1, EagerLoss: 1.5, RetryBudget: 7}, false},
		{"negative loss", &fault.Spec{Seed: 1, DataLoss: -0.1, RetryBudget: 7}, false},
		{"loss without retries", &fault.Spec{Seed: 1, CTSLoss: 0.5}, false},
		{"negative retry budget", &fault.Spec{Seed: 1, RetryBudget: -2}, false},
		{"straggler in range", &fault.Spec{Seed: 1,
			Stragglers: []fault.Straggler{{Rank: 3, Slowdown: 2}}}, true},
		{"straggler out of range", &fault.Spec{Seed: 1,
			Stragglers: []fault.Straggler{{Rank: 64, Slowdown: 2}}}, false},
		{"slowdown below one", &fault.Spec{Seed: 1,
			Stragglers: []fault.Straggler{{Rank: 0, Slowdown: 0.5}}}, false},
		{"negative transition delay", &fault.Spec{Seed: 1, PStateDelay: -1}, false},
		{"jitter at one", &fault.Spec{Seed: 1, ComputeJitter: 1,
			Stragglers: []fault.Straggler{{Rank: 0, Slowdown: 2}}}, false},
		{"empty link name", &fault.Spec{Seed: 1,
			LinkFaults: []fault.LinkFault{{Link: "", Start: 0, Duration: 1}}}, false},
	}
	for _, tc := range cases {
		cfg := testConfig()
		cfg.Fault = tc.spec
		err := cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestUnknownFaultLinkRejected: a spec naming a link the topology does not
// have fails at world construction, naming the link.
func TestUnknownFaultLinkRejected(t *testing.T) {
	cfg := testConfig()
	cfg.Fault = &fault.Spec{Seed: 1, LinkFaults: []fault.LinkFault{
		{Link: "node77-up", Factor: 0.5, Start: 0, Duration: simtime.Millisecond},
	}}
	if _, err := NewWorld(cfg); err == nil || !strings.Contains(err.Error(), "node77-up") {
		t.Fatalf("NewWorld err = %v, want unknown-link error", err)
	}
}

// TestReliableDeliveryUnderLoss: heavy loss slows a rendezvous transfer
// but retransmission still completes it, and the run stays deterministic.
func TestReliableDeliveryUnderLoss(t *testing.T) {
	const bytes = 64 << 10 // rendezvous
	elapsedWith := func(spec *fault.Spec) simtime.Duration {
		cfg := testConfig()
		cfg.Fault = spec
		w := mustWorld(t, cfg)
		w.Launch(func(r *Rank) {
			switch r.ID() {
			case 0:
				if err := r.Send(2, bytes, 1); err != nil {
					t.Error(err)
				}
			case 2:
				if err := r.Recv(0, bytes, 1); err != nil {
					t.Error(err)
				}
			}
		})
		d, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	clean := elapsedWith(nil)
	spec := &fault.Spec{Seed: 11, CTSLoss: 0.9, RetryBudget: 20,
		AckTimeout: 50 * simtime.Microsecond}
	lossy := elapsedWith(spec)
	if lossy <= clean {
		t.Fatalf("90%% CTS loss did not slow the transfer: %v vs %v", lossy, clean)
	}
	if again := elapsedWith(spec); again != lossy {
		t.Fatalf("same spec+seed gave %v then %v", lossy, again)
	}
}

// TestExhaustedRetriesNamedInDeadlock: when a message burns its whole
// retry budget the run ends in a deadlock report that names both the
// exhausted message and the blocked waits (satellite: diagnosability).
func TestExhaustedRetriesNamedInDeadlock(t *testing.T) {
	cfg := testConfig()
	cfg.Fault = &fault.Spec{Seed: 1, CTSLoss: 1, RetryBudget: 2,
		AckTimeout: 50 * simtime.Microsecond}
	w := mustWorld(t, cfg)
	const bytes = 64 << 10 // rendezvous, so the lost CTS stalls both sides
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
		t.Fatal("run with every CTS lost terminated cleanly")
	}
	var dl *simtime.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("error %v does not wrap a DeadlockError", err)
	}
	msg := err.Error()
	for _, want := range []string{"exhausted their retry budget", "cts 2→0", "rendezvous data"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// TestLinkDownRequeuesWithoutBudget: a send hitting a down link waits out
// the window instead of spending retries, and delivers afterwards.
func TestLinkDownRequeuesWithoutBudget(t *testing.T) {
	down := 2 * simtime.Millisecond
	cfg := testConfig()
	cfg.Fault = &fault.Spec{Seed: 1, RetryBudget: 1, // any drop would kill the run
		LinkFaults: []fault.LinkFault{{Link: "node0-up", Factor: 0, Start: 0, Duration: down}}}
	// RetryBudget 1 with no loss probabilities: if the requeue charged the
	// budget the message would exhaust instantly.
	w := mustWorld(t, cfg)
	var recvAt simtime.Time
	w.Launch(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(2, 1024, 1)
		case 2:
			r.Recv(0, 1024, 1)
			recvAt = r.Now()
		}
	})
	if _, err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if recvAt < simtime.Time(0).Add(down) {
		t.Fatalf("eager message crossed a down link: delivered at %v, window closes at %v",
			recvAt, down)
	}
}

// TestStragglerSlowsJob: a straggler stretches the job by roughly its
// slowdown on compute-bound work, and healthy runs are untouched.
func TestStragglerSlowsJob(t *testing.T) {
	work := 10 * simtime.Millisecond
	elapsedWith := func(spec *fault.Spec) simtime.Duration {
		cfg := testConfig()
		cfg.Fault = spec
		w := mustWorld(t, cfg)
		w.Launch(func(r *Rank) { r.Compute(work) })
		d, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	clean := elapsedWith(nil)
	slowed := elapsedWith(&fault.Spec{Seed: 1,
		Stragglers: []fault.Straggler{{Rank: 1, Slowdown: 3}}})
	if want := 3 * clean; slowed != want {
		t.Fatalf("straggler 3x run took %v, want %v (clean %v)", slowed, want, clean)
	}
	inactive := elapsedWith(&fault.Spec{Seed: 1}) // zero-probability spec
	if inactive != clean {
		t.Fatalf("inactive spec perturbed the run: %v vs %v", inactive, clean)
	}
}

// TestTransitionDelayInjected: PStateDelay stretches every DVFS
// transition pair.
func TestTransitionDelayInjected(t *testing.T) {
	extra := 50 * simtime.Microsecond
	elapsedWith := func(spec *fault.Spec) simtime.Duration {
		cfg := testConfig()
		cfg.Fault = spec
		w := mustWorld(t, cfg)
		w.Launch(func(r *Rank) {
			r.ScaleDown()
			r.ScaleUp()
		})
		d, err := w.Run()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	clean := elapsedWith(nil)
	delayed := elapsedWith(&fault.Spec{Seed: 1, PStateDelay: extra})
	if want := clean + 2*extra; delayed != want {
		t.Fatalf("two transitions with %v extra took %v, want %v (clean %v)",
			extra, delayed, want, clean)
	}
}

// TestWireBoard: Comm.SendValues/RecvValues carry values FIFO per
// (src,dst,tag) lane across the simulated schedule, at one and two
// lanes per message.
func TestWireBoard(t *testing.T) {
	msgs := [][]float64{{2.5, 0.5}, {-1, 3}, {7, -7}}
	for _, lanes := range []int{1, 2} {
		w := mustWorld(t, testConfig())
		w.Launch(func(r *Rank) {
			c := CommWorld(r)
			switch r.ID() {
			case 0:
				for i, vs := range msgs {
					if err := c.SendValues(2, 1024, 10+i, vs[:lanes]...); err != nil {
						t.Error(err)
					}
				}
			case 2:
				for i, want := range msgs {
					got, err := c.RecvValues(0, 1024, 10+i, lanes)
					if err != nil {
						t.Error(err)
						continue
					}
					for l := 0; l < lanes; l++ {
						if got[l] != want[l] {
							t.Errorf("lanes=%d message %d lane %d = %g, want %g", lanes, i, l, got[l], want[l])
						}
					}
				}
				if _, err := c.TakeWires(0, 99, 1); err == nil {
					t.Error("TakeWires invented a value")
				}
			}
		})
		if _, err := w.Run(); err != nil {
			t.Fatal(err)
		}
	}
}
