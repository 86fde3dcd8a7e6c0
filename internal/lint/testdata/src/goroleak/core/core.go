// Package core (under the goroleak fixture tree, so the path matches
// the analyzer's protocol-package scope) pins goroleak's behavior:
// goroutines with no visible lifecycle tie are flagged; stop-channel,
// context, and WaitGroup ties — direct or one helper deep — are clean.
package core

import (
	"context"
	"errors"
	"sync"
)

// Worker owns a stop channel and a WaitGroup, the two shutdown shapes
// the real protocol packages use.
type Worker struct {
	stop chan struct{}
	wg   sync.WaitGroup
	n    int
}

// BadLooseLoop spawns a free-running loop nothing can stop.
func (w *Worker) BadLooseLoop() {
	go func() { // want `not tied to a stop channel, context, or WaitGroup`
		for {
			w.n++
		}
	}()
}

// badTick has no channel, context, or WaitGroup interaction.
func (w *Worker) badTick() {
	w.n++
}

// BadLooseNamed launches a named method with an untied summary.
func (w *Worker) BadLooseNamed() {
	go w.badTick() // want `not tied to a stop channel, context, or WaitGroup`
}

// BadOpaqueValue launches through a function value the analyzer cannot
// resolve.
func BadOpaqueValue(f func()) {
	go f() // want `goroutine target is not statically resolvable`
}

// GoodStopChannel selects on the stop channel.
func (w *Worker) GoodStopChannel() {
	go func() {
		for {
			select {
			case <-w.stop:
				return
			}
		}
	}()
}

// GoodWaitGroup ties the named loop to the WaitGroup.
func (w *Worker) GoodWaitGroup() {
	w.wg.Add(1)
	go w.run()
}

func (w *Worker) run() {
	defer w.wg.Done()
	w.n++
}

// GoodContext watches ctx.Done.
func (w *Worker) GoodContext(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

// GoodHelperTie reaches the stop channel one helper deep; the call
// summary carries the tie up.
func (w *Worker) GoodHelperTie() {
	go w.waitLoop()
}

func (w *Worker) waitLoop() {
	<-w.stop
}

// errOverload stands in for the send machine's typed local refusal.
var errOverload = errors.New("send queues over budget")

// BadShedPump re-fires refused callbacks from a free-running loop with no
// lifecycle tie: Close cannot stop it re-entering a drained machine.
func (w *Worker) BadShedPump(cbs []func(error)) {
	go func() { // want `not tied to a stop channel, context, or WaitGroup`
		for {
			for _, cb := range cbs {
				cb(errOverload)
			}
		}
	}()
}

// GoodShedDrain is the refusal contract with a clean lifecycle: every
// refused element's callback still fires — with the typed error — and
// the drain loop exits on the owner's stop channel.
func (w *Worker) GoodShedDrain(cbs []func(error)) {
	go func() {
		<-w.stop
		for _, cb := range cbs {
			cb(errOverload)
		}
	}()
}
