// Package serve is the goleak golden fixture: every goroutine launched
// here must show a statically-reachable exit on ctx.Done, a stop
// signal, or a connection close, and every derived context's cancel
// function must be used.
package serve

import (
	"context"
	"time"
)

type worker struct{ n int }

func handle(int) {}

func use(context.Context) {}

// pump spins forever with no exit: flagged when launched below —
// the finding lands on the loop, naming the launch site.
func (w *worker) pump() {
	for { // want "goleak: goroutine loop has no reachable exit"
		w.n++
	}
}

// launchNamed hides the loop behind a method call; the check follows
// one call level into in-package declarations.
func (w *worker) launchNamed() {
	go w.pump()
}

// launchSpinner: literal body, no exit at all.
func launchSpinner(w *worker) {
	go func() {
		for { // want "goleak: goroutine loop has no reachable exit"
			w.n++
		}
	}()
}

// launchDataExit exits only when the payload says so: a blocked
// receive at shutdown leaks the goroutine forever.
func launchDataExit(in chan int) {
	go func() {
		for { // want "goleak: blocking goroutine loop exits only on data conditions"
			v := <-in
			if v < 0 {
				return
			}
			handle(v)
		}
	}()
}

// launchDone is the compliant shape: a ctx.Done select case gives
// shutdown a way out.
func launchDone(ctx context.Context, in chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case v := <-in:
				handle(v)
			}
		}
	}()
}

// launchRange drains until close: range over a
// channel exits when the sender closes it.
func launchRange(in chan int) {
	go func() {
		for v := range in {
			handle(v)
		}
	}()
}

// launchStopChan polls a stop-named channel: recognized shutdown edge.
func launchStopChan(in, stop chan int) {
	go func() {
		for {
			select {
			case <-stop:
				return
			case v := <-in:
				handle(v)
			}
		}
	}()
}

// discardCancel throws the cancel function away: the derived context
// and its resources leak.
func discardCancel(parent context.Context) context.Context {
	ctx, _ := context.WithCancel(parent) // want "goleak: WithCancel's cancel function is discarded"
	return ctx
}

// deferredCancel is the compliant shape.
func deferredCancel(parent context.Context) {
	ctx, cancel := context.WithTimeout(parent, time.Second)
	defer cancel()
	use(ctx)
}

// suppressedSpinner documents a process-lifetime goroutine with a
// written reason: silenced.
func suppressedSpinner(w *worker) {
	go func() {
		//lint:goleak ok — fixture: process-lifetime metronome, reaped at exit by design
		for {
			w.n++
		}
	}()
}

// missingReason's suppression carries no reason: rejected as
// malformed, and the finding survives.
func missingReason(w *worker) {
	go func() {
		// want "suppress: malformed suppression for .goleak."
		//lint:goleak ok
		for { // want "goleak: goroutine loop has no reachable exit"
			w.n++
		}
	}()
}
