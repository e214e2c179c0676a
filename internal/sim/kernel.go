// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock measured in CPU cycles and an event
// queue ordered by (time, insertion sequence). Simulated threads (Proc) run
// as iter.Pull coroutines: a proc runs only when the kernel loop or another
// proc resumes it, and it runs until it parks, so at most one of them
// executes at any instant. Simulations are therefore fully deterministic and
// race-free; their only source of randomness is the kernel's seeded RNG.
//
// The event queue is a pooled 4-ary min-heap: fired and cancelled events are
// recycled through a free list, so steady-state scheduling does not allocate.
// See DESIGN.md for the determinism invariants this structure must preserve.
package sim

import (
	"fmt"
	"math/rand"
)

// Cycles is a duration or instant expressed in reference CPU cycles
// (cycles of the maximum-frequency clock of the simulated machine).
type Cycles uint64

// event is the pooled internal representation of a scheduled callback.
// Exactly one of fn, call or proc describes the action: fn is a plain
// closure, call is a closure-free callback invoked as call(obj, a, b),
// and proc is a typed wake-up delivering the WakeVal in a.
type event struct {
	at  Cycles
	seq uint64

	fn   func()
	call func(obj any, a, b uint64)
	obj  any
	proc *Proc
	a, b uint64

	gen       uint32
	cancelled bool
}

// Event is a cancellable handle to a scheduled event. It is a small value
// (not a pointer): the generation field detects whether the underlying
// pooled event slot still belongs to this schedule, so holding a handle to
// an event that already fired is harmless and the zero Event is inert.
type Event struct {
	e   *event
	gen uint32
}

// live returns the underlying event if the handle still refers to the
// scheduled (not yet fired or reclaimed) event, else nil.
func (ev Event) live() *event {
	if ev.e == nil || ev.e.gen != ev.gen {
		return nil
	}
	return ev.e
}

// At returns the virtual time at which the event fires, or zero if the
// handle is no longer live (fired, reclaimed, or the zero Event).
func (ev Event) At() Cycles {
	if e := ev.live(); e != nil {
		return e.at
	}
	return 0
}

// Cancelled reports whether the event will not fire: cancelled, already
// fired and reclaimed, or the zero handle.
func (ev Event) Cancelled() bool {
	e := ev.live()
	return e == nil || e.cancelled
}

// Kernel is the simulation core: virtual clock, event queue and RNG.
// The zero value is not usable; construct with NewKernel.
type Kernel struct {
	now     Cycles
	heap    []*event // 4-ary min-heap ordered by (at, seq)
	free    []*event // recycled event slots
	ncancel int      // cancelled events still in heap
	seq     uint64
	rng     *rand.Rand
	stopped bool
	until   Cycles // time limit of the current Run, 0 = none
	looped  *Proc  // proc the Run loop is resuming for its timed wake-up

	// nrecycled/ncompact/hiwater/nresumes/ninline are kernel-local
	// instrumentation counters, deliberately plain (not atomic): the
	// hot loop bumps them for free and flushStats folds them into the
	// process-wide telemetry totals at Run exit (see stats.go).
	nrecycled uint64
	ncompact  uint64
	hiwater   int
	nresumes  uint64
	ninline   uint64
}

// NewKernel returns a kernel with its clock at zero and the RNG seeded
// with seed (use a fixed seed for reproducible runs).
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Cycles { return k.now }

// Rand returns the kernel's deterministic RNG. It must only be used from
// simulation context (kernel loop or a running Proc).
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// alloc takes an event slot from the free list (or allocates one), stamps
// it with the fire time and the next sequence number, and returns it.
func (k *Kernel) alloc(d Cycles) *event {
	var e *event
	if n := len(k.free); n > 0 {
		e = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
	} else {
		e = &event{}
	}
	e.at = k.now + d
	e.seq = k.seq
	k.seq++
	return e
}

// recycle returns a popped event slot to the free list. Bumping the
// generation invalidates any outstanding Event handles to it.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.call = nil
	e.obj = nil
	e.proc = nil
	e.a, e.b = 0, 0
	e.cancelled = false
	k.free = append(k.free, e)
	k.nrecycled++
}

// Schedule registers fn to run at now+d and returns a handle that can be
// cancelled. The closure fn is allocated by the caller; hot paths should
// prefer ScheduleCall, which needs no per-call closure.
func (k *Kernel) Schedule(d Cycles, fn func()) Event {
	e := k.alloc(d)
	e.fn = fn
	k.push(e)
	return Event{e: e, gen: e.gen}
}

// ScheduleCall registers call(obj, a, b) to run at now+d. Unlike Schedule
// it captures no environment: with a package-level call func and a pointer
// obj, scheduling is allocation-free in steady state.
func (k *Kernel) ScheduleCall(d Cycles, call func(obj any, a, b uint64), obj any, a, b uint64) Event {
	e := k.alloc(d)
	e.call = call
	e.obj = obj
	e.a, e.b = a, b
	k.push(e)
	return Event{e: e, gen: e.gen}
}

// scheduleWake registers a typed wake-up of p at now+d carrying val.
func (k *Kernel) scheduleWake(d Cycles, p *Proc, val uint64) Event {
	e := k.alloc(d)
	e.proc = p
	e.a = val
	k.push(e)
	return Event{e: e, gen: e.gen}
}

// Cancel prevents a scheduled event from firing. Cancelling an event that
// already fired or was already cancelled is a no-op, as is cancelling the
// zero Event. Cancelled entries are skipped lazily at pop; when they
// outnumber the live ones the heap is compacted so a workload that cancels
// most of its timers (futex timeouts beaten by wakes) cannot grow the heap
// without bound.
func (k *Kernel) Cancel(ev Event) {
	e := ev.live()
	if e == nil || e.cancelled {
		return
	}
	e.cancelled = true
	k.ncancel++
	if n := len(k.heap); n >= 64 && k.ncancel > n/2 {
		k.compact()
	}
}

// compact removes cancelled entries from the heap and restores heap order.
func (k *Kernel) compact() {
	h := k.heap[:0]
	for _, e := range k.heap {
		if e.cancelled {
			k.recycle(e)
		} else {
			h = append(h, e)
		}
	}
	for i := len(h); i < len(k.heap); i++ {
		k.heap[i] = nil
	}
	k.heap = h
	k.ncancel = 0
	k.ncompact++
	for i := (len(h) - 2) / 4; i >= 0; i-- {
		k.siftDown(i)
	}
}

// Pending returns the number of events in the queue, including cancelled
// ones that have been neither popped nor compacted away yet.
func (k *Kernel) Pending() int { return len(k.heap) }

// Stop makes Run return after the current event completes (for a proc
// wake-up: once the woken proc parks). A later Run continues from there.
func (k *Kernel) Stop() { k.stopped = true }

// push inserts e into the 4-ary heap (sift-up).
func (k *Kernel) push(e *event) {
	k.heap = append(k.heap, e)
	if len(k.heap) > k.hiwater {
		k.hiwater = len(k.heap)
	}
	h := k.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		ep := h[p]
		if ep.at < e.at || (ep.at == e.at && ep.seq < e.seq) {
			break
		}
		h[i] = ep
		i = p
	}
	h[i] = e
}

// siftDown restores heap order below index i.
func (k *Kernel) siftDown(i int) {
	h := k.heap
	n := len(h)
	e := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].at < h[m].at || (h[j].at == h[m].at && h[j].seq < h[m].seq) {
				m = j
			}
		}
		em := h[m]
		if e.at < em.at || (e.at == em.at && e.seq < em.seq) {
			break
		}
		h[i] = em
		i = m
	}
	h[i] = e
}

// popMin removes and returns the heap minimum.
func (k *Kernel) popMin() *event {
	h := k.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil
	k.heap = h[:n]
	if n > 1 {
		k.siftDown(0)
	}
	return top
}

// pop returns the next runnable event with the clock advanced to it, or
// nil when the event loop must end: Stop was called, the queue is empty,
// or the next event lies beyond the Run limit (in which case the clock is
// advanced to the limit). Ownership of the returned event passes to the
// caller, which must recycle it.
func (k *Kernel) pop() *event {
	for {
		if k.stopped || len(k.heap) == 0 {
			return nil
		}
		top := k.heap[0]
		if k.until != 0 && top.at > k.until {
			k.now = k.until
			return nil
		}
		e := k.popMin()
		if e.cancelled {
			k.ncancel--
			k.recycle(e)
			continue
		}
		if e.at < k.now {
			panic(fmt.Sprintf("sim: event at %d scheduled in the past (now %d)", e.at, k.now))
		}
		k.now = e.at
		return e
	}
}

// Run executes events in timestamp order until the queue drains, the clock
// passes until (0 means no limit), or Stop is called. It returns the
// virtual time at exit. A proc wake-up resumes that proc, which runs to its
// next park before the loop pops the next event; a panic raised by a
// callback or by any proc body propagates out of Run with its original
// value.
func (k *Kernel) Run(until Cycles) Cycles {
	k.stopped = false
	k.until = until
	for e := k.pop(); e != nil; e = k.pop() {
		p, call, fn := e.proc, e.call, e.fn
		obj, a, b := e.obj, e.a, e.b
		k.recycle(e)
		switch {
		case p != nil:
			k.looped = p
			p.Wake(a)
			k.looped = nil
		case call != nil:
			call(obj, a, b)
		default:
			fn()
		}
	}
	k.until = 0
	if until != 0 && k.now < until && len(k.heap) == 0 {
		k.now = until
	}
	k.flushStats()
	return k.now
}

// Drain runs until the event queue is empty (no time limit).
func (k *Kernel) Drain() Cycles { return k.Run(0) }
