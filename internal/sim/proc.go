package sim

import (
	"fmt"
	"iter"
)

// ProcState describes the lifecycle of a simulated thread.
type ProcState int

const (
	// ProcNew means the Proc has not started executing the body yet.
	ProcNew ProcState = iota
	// ProcRunning means the Proc is the currently executing simulation actor.
	ProcRunning
	// ProcParked means the Proc is blocked waiting for a Wake.
	ProcParked
	// ProcDone means the body returned.
	ProcDone
)

func (s ProcState) String() string {
	switch s {
	case ProcNew:
		return "new"
	case ProcRunning:
		return "running"
	case ProcParked:
		return "parked"
	case ProcDone:
		return "done"
	}
	return fmt.Sprintf("ProcState(%d)", int(s))
}

// Proc is a simulated thread: an iter.Pull coroutine whose execution is
// interleaved with virtual time by the kernel. Exactly one Proc (or the
// kernel loop) runs at a time. Resuming a proc (Start, Wake, or a timed
// wake-up popped by Run) runs it until it parks or its body returns, and
// control then returns to whoever resumed it.
type Proc struct {
	k     *Kernel
	id    int
	name  string
	state ProcState
	body  func(*Proc)
	next  func() (struct{}, bool) // resumes the coroutine
	yield func(struct{}) bool     // parks the coroutine

	// WakeVal carries an optional value from the waker to the parked
	// proc (e.g. futex wake reason). Zero when woken by a timer.
	WakeVal uint64
}

// NewProc creates a simulated thread that will execute body when started.
// The Proc does not run until Start (typically via a scheduled event).
func (k *Kernel) NewProc(id int, name string, body func(*Proc)) *Proc {
	return &Proc{k: k, id: id, name: name, state: ProcNew, body: body}
}

// ID returns the numeric identifier given at creation.
func (p *Proc) ID() int { return p.id }

// Name returns the debug name given at creation.
func (p *Proc) Name() string { return p.name }

// State returns the current lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the kernel's current virtual time.
func (p *Proc) Now() Cycles { return p.k.now }

// Start creates the Proc's coroutine and runs it until its first park.
// Must be called from simulation context (an event callback or a running
// Proc) or before Run.
func (p *Proc) Start() {
	if p.state != ProcNew {
		panic("sim: Start on a non-new Proc")
	}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		p.body(p)
		p.state = ProcDone
	})
	p.state = ProcRunning
	p.k.nresumes++
	p.next()
}

// park suspends the calling proc and returns control to whoever resumed
// it; it returns when the proc is next woken.
func (p *Proc) park() {
	p.state = ProcParked
	p.yield(struct{}{})
}

// Park blocks the proc until some other actor calls Wake. The returned
// value is the WakeVal supplied by the waker.
func (p *Proc) Park() uint64 {
	p.WakeVal = 0
	p.park()
	return p.WakeVal
}

// Wake unparks p with the given value and runs it until it parks or
// finishes again; control then returns to the caller. Wake is synchronous
// from any simulation context: a running proc, an event callback, or the
// kernel loop delivering a timed wake-up.
func (p *Proc) Wake(val uint64) {
	if p.state != ProcParked {
		panic(fmt.Sprintf("sim: Wake on proc %q in state %v", p.name, p.state))
	}
	p.WakeVal = val
	p.state = ProcRunning
	p.k.nresumes++
	p.next()
}

// WakeAt schedules p to be woken at now+d with the given value and returns
// the timer event (cancellable). The wake-up is a typed event, so no
// closure is allocated.
func (p *Proc) WakeAt(d Cycles, val uint64) Event {
	return p.k.scheduleWake(d, p, val)
}

// Sleep advances virtual time by d for this proc: it schedules its own
// wake-up and parks. Other events run in the meantime.
//
// When that wake-up is certain to be the next event Run pops, Sleep
// advances the clock in place instead (the inline self-wake, see
// DESIGN.md): p was resumed by the Run loop for its own timed wake-up,
// so no caller has work left at this instant; the queue holds nothing
// before now+d, nor anything at now+d, which would fire first; Stop has
// not been called; and now+d is within the Run limit. The wake-up's
// sequence number is still consumed, so the (time, seq) order of every
// later event is unchanged.
func (p *Proc) Sleep(d Cycles) {
	if d == 0 {
		return
	}
	k := p.k
	if t := k.now + d; k.looped == p && (len(k.heap) == 0 || t < k.heap[0].at) &&
		!k.stopped && (k.until == 0 || t <= k.until) {
		k.seq++
		k.now = t
		p.WakeVal = 0
		k.ninline++
		return
	}
	k.scheduleWake(d, p, 0)
	p.park()
}

// Done reports whether the proc body has returned.
func (p *Proc) Done() bool { return p.state == ProcDone }

// startProc is the ScheduleCall callback used by Go.
func startProc(obj any, _, _ uint64) { obj.(*Proc).Start() }

// Go is a convenience: create a proc and schedule its start at now+delay.
func (k *Kernel) Go(id int, name string, delay Cycles, body func(*Proc)) *Proc {
	p := k.NewProc(id, name, body)
	k.ScheduleCall(delay, startProc, p, 0, 0)
	return p
}
