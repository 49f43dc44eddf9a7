//go:build go1.23

package simtime

import "iter"

// Spawn creates a process named name whose body starts executing at the
// current virtual time (when the engine reaches that event). The body runs
// as a coroutine of whichever goroutine calls Run, serialized with all
// other simulation activity; Spawn and Run may be called from different
// goroutines, as long as not concurrently.
//
// A panic in the body stops the engine, and Run returns it as a
// *ProcPanicError (a Killed unwind retires the process silently). A
// runtime.Goexit in the body — t.FailNow, for one — is not contained:
// it propagates to the goroutine running Run, which runs its deferred
// calls and exits without Run returning.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, id: len(e.procs), name: name}
	e.procs = append(e.procs, p)
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.park = yield
		defer func() {
			// A panicking process must not unwind into the engine's
			// run loop through next. The panic is surfaced as a Run
			// error.
			if r := recover(); r != nil {
				if _, wasKilled := r.(Killed); !wasKilled {
					if e.panicErr == nil {
						e.panicErr = &ProcPanicError{Proc: p.name, Value: r}
					}
					e.stopped = true
				}
			}
			p.done = true
			p.next, p.park = nil, nil
		}()
		// A process condemned before its first resume (KillLive on an
		// aborted run) retires without ever running its body.
		if p.killed {
			panic(Killed{})
		}
		body(p)
	})
	e.wakeAt(e.now, p)
	return p
}

// runProc transfers control to p and returns when p parks again (or
// terminates). Must only be called from event context.
func (e *Engine) runProc(p *Proc) {
	if p.done {
		return
	}
	p.next()
}

// yield parks the process and hands control back to the engine; it returns
// when some event resumes the process.
func (p *Proc) yield(reason string) {
	p.blockedOn = reason
	p.park(struct{}{})
	if p.killed {
		p.blockedOn = "killed"
		panic(Killed{})
	}
	p.blockedOn = ""
}
