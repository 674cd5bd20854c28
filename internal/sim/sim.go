// Package sim provides the discrete-event simulation engine that drives the
// disaggregated-memory cluster model. Time is a float64 number of seconds.
// The engine combines a classic event heap (for application arrivals and
// completions) with a fixed-period tick hook (for the fluid contention model
// and the 1 s performance-counter sampling the Watcher relies on).
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is simulation time in seconds since the start of the run.
type Time = float64

// Event is a scheduled callback. Fire is invoked with the engine so handlers
// can schedule follow-up events.
type Event struct {
	At   Time
	Name string
	Fire func(e *Engine)

	seq   int64 // tie-break for deterministic ordering
	index int   // heap bookkeeping
}

// eventQueue is a min-heap on (At, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.index = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*q = old[:n-1]
	return e
}

// Ticker is a callback invoked at every fixed tick boundary, in registration
// order, after all events at or before the tick time have fired. dt is
// always the engine's tick period — the fluid models integrate whole ticks —
// however recently an event moved the clock.
type Ticker func(now Time, dt Time)

// Engine is the simulation core. The zero value is not usable; construct
// with NewEngine.
type Engine struct {
	now      Time
	queue    eventQueue
	seq      int64
	tick     Time
	nextTick Time
	tickers  []Ticker
	stopped  bool
	fired    int64
}

// NewEngine returns an engine whose tick hooks run every tickPeriod seconds.
// tickPeriod must be positive.
func NewEngine(tickPeriod Time) *Engine {
	if tickPeriod <= 0 {
		panic("sim: tick period must be positive")
	}
	return &Engine{tick: tickPeriod, nextTick: tickPeriod}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// TickPeriod returns the configured tick period.
func (e *Engine) TickPeriod() Time { return e.tick }

// EventsFired returns the total number of events fired so far.
func (e *Engine) EventsFired() int64 { return e.fired }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// OnTick registers a ticker. Tickers run in registration order.
func (e *Engine) OnTick(t Ticker) { e.tickers = append(e.tickers, t) }

// Schedule queues fire to run at absolute time at. Scheduling in the past
// (before Now) is an error and panics, since it indicates a model bug.
func (e *Engine) Schedule(at Time, name string, fire func(*Engine)) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %.3f before now %.3f", name, at, e.now))
	}
	ev := &Event{At: at, Name: name, Fire: fire, seq: e.seq}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// ScheduleAfter queues fire to run delay seconds from now.
func (e *Engine) ScheduleAfter(delay Time, name string, fire func(*Engine)) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %.3f for %q", delay, name))
	}
	return e.Schedule(e.now+delay, name, fire)
}

// Cancel removes a previously scheduled event. Cancelling an event that has
// already fired or been cancelled is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 || ev.index >= len(e.queue) || e.queue[ev.index] != ev {
		return
	}
	heap.Remove(&e.queue, ev.index)
}

// Stop halts Run after the currently firing event or tick completes.
func (e *Engine) Stop() { e.stopped = true }

// Run advances simulation time until `until`, firing events and tick hooks
// in timestamp order. Events scheduled exactly on a tick boundary fire
// before that tick's hooks. Run may be called repeatedly to continue.
func (e *Engine) Run(until Time) {
	if until < e.now {
		panic(fmt.Sprintf("sim: Run until %.3f before now %.3f", until, e.now))
	}
	e.stopped = false
	for !e.stopped {
		nextEv := math.Inf(1)
		if len(e.queue) > 0 {
			nextEv = e.queue[0].At
		}
		// Next thing to happen: an event, a tick, or the end of the run.
		switch {
		case nextEv <= e.nextTick && nextEv <= until:
			ev := heap.Pop(&e.queue).(*Event)
			e.now = ev.At
			e.fired++
			ev.Fire(e)
		case e.nextTick <= until:
			e.now = e.nextTick
			for _, t := range e.tickers {
				t(e.now, e.tick)
			}
			e.nextTick += e.tick
		default:
			e.now = until
			return
		}
	}
}

// RunUntilIdle fires all pending events (and intervening ticks) until the
// queue is empty, then returns. Tick hooks alone do not keep it alive.
// A safety cap on fired events guards against runaway self-scheduling.
func (e *Engine) RunUntilIdle(maxEvents int64) error {
	start := e.fired
	for len(e.queue) > 0 {
		if e.fired-start >= maxEvents {
			return fmt.Errorf("sim: RunUntilIdle exceeded %d events", maxEvents)
		}
		e.Run(e.queue[0].At)
	}
	return nil
}
