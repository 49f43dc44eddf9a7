package simtime

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines polls until the goroutine count drops back to base,
// giving exiting goroutines a moment to be reaped, and reports the last
// count seen.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestKillLiveReleasesGoroutines: the processes of an aborted run hold
// goroutines while parked; KillLive must release every one of them,
// including a process that never started.
func TestKillLiveReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	c := NewCond(e)
	for i := 0; i < 8; i++ {
		e.Spawn("parked", func(p *Proc) { c.Wait(p, "never signaled") })
	}
	abort := errors.New("abort")
	e.SetInterrupt(func() error {
		if e.Now() > 0 {
			return abort
		}
		return nil
	}, 1)
	e.After(Duration(1), func() {})
	e.After(Duration(2), func() {})
	if _, err := e.Run(Infinity); !errors.Is(err, abort) {
		t.Fatalf("Run err = %v, want abort", err)
	}
	e.Spawn("unstarted", func(p *Proc) { t.Error("unstarted body ran") })
	if n := runtime.NumGoroutine(); n < base+9 {
		t.Fatalf("%d goroutines with 9 live processes, baseline %d", n, base)
	}
	e.KillLive()
	if n := settleGoroutines(base); n != base {
		t.Fatalf("%d goroutines after KillLive, want baseline %d", n, base)
	}
}

// TestRunReleasesGoroutines: a run whose processes all finish leaves no
// goroutine behind.
func TestRunReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	f := NewFuture(e)
	for i := 0; i < 8; i++ {
		e.Spawn("worker", func(p *Proc) {
			p.Sleep(Duration(i + 1))
			f.Await(p, "future")
		})
	}
	e.After(Duration(20), f.Complete)
	if _, err := e.Run(Infinity); err != nil {
		t.Fatal(err)
	}
	if n := settleGoroutines(base); n != base {
		t.Fatalf("%d goroutines after Run, want baseline %d", n, base)
	}
	for _, p := range e.procs {
		if p.next != nil || p.park != nil {
			t.Fatalf("finished process %s still holds its coroutine", p.Name())
		}
	}
}

// TestGoexitInBodyExitsRunGoroutine: runtime.Goexit in a process body
// (t.FailNow, for one) propagates to the goroutine running Run: that
// goroutine's deferred calls run and Run never returns.
func TestGoexitInBodyExitsRunGoroutine(t *testing.T) {
	e := NewEngine()
	e.Spawn("goexiter", func(p *Proc) {
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	bystander := false
	e.Spawn("bystander", func(p *Proc) {
		p.Sleep(10 * Microsecond)
		bystander = true
	})
	exited := make(chan struct{})
	returned := false
	go func() {
		defer close(exited)
		e.Run(Infinity)
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned after a process body called runtime.Goexit")
	}
	if bystander {
		t.Fatal("simulation kept running after a process body called runtime.Goexit")
	}
	if e.running {
		t.Fatal("Run's deferred cleanup did not run on Goexit")
	}
}

// TestSpawnAndRunOnDifferentGoroutines: processes spawned on one
// goroutine can be run from others, as a service worker may do, with
// the same interleaving as a run on the spawning goroutine.
func TestSpawnAndRunOnDifferentGoroutines(t *testing.T) {
	build := func(log *[]int) *Engine {
		e := NewEngine()
		c := NewCond(e)
		for i := 0; i < 4; i++ {
			e.Spawn("p", func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(Duration(i + 1))
					*log = append(*log, i)
				}
				c.Wait(p, "release")
				*log = append(*log, 10+i)
			})
		}
		e.After(Duration(50), c.Broadcast)
		return e
	}

	var want []int
	if _, err := build(&want).Run(Infinity); err != nil {
		t.Fatal(err)
	}

	var got []int
	e := build(&got)
	// Each Run window executes on a fresh goroutine.
	for _, limit := range []Time{3, 9, Infinity} {
		errc := make(chan error)
		go func() {
			_, err := e.Run(limit)
			errc <- err
		}()
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("cross-goroutine run logged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cross-goroutine run logged %v, want %v", got, want)
		}
	}
	for _, p := range e.procs {
		if !p.Done() {
			t.Fatalf("process %s not done", p.describe())
		}
	}
}

// BenchmarkProcSwitch measures one process switch — the engine resuming
// a process that then parks again — with two processes ping-ponging
// through Sleep(0). Every 1024th sleep advances the clock instead, so
// the instant's event bucket is recycled rather than growing with b.N.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	for _, n := range []int{(b.N + 1) / 2, b.N / 2} {
		e.Spawn("pingpong", func(p *Proc) {
			for i := 1; i <= n; i++ {
				if i%1024 == 0 {
					p.Sleep(1)
				} else {
					p.Sleep(0)
				}
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := e.Run(Infinity); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/switch")
	b.ReportMetric(0, "ns/op")
}
